"""Mollification of the one-leg block H4 in five real variables.

H4(x, y, r, s, K) is merely C^1 across its two branch cuts, so the smooth
surrogate is produced by convolving it, as a function of the five real
variables (x, y, r, s, K) with x, y > 0, against the standard compactly
supported bump

    phi(u) ~ exp(-1 / (1 - |u/ell|^2))   on |u| < ell,

discretized on the same grid (spacing <= ell/4) and normalized to unit mass.
Smoothing happens before composing with K = K(r, s); convexity of H4 in the
five variables and the monotonicity -d/dK H4 >= 0 survive averaging exactly,
which is what preserves the one-leg convexity of the composite (at the
weakened constant 1/Q instead of 2/Q).

The kernel radius m is the largest offset that carries weight, 3 cells at
spacing ell/4: the taps at floor(ell/spacing) = 4 cells weigh exactly 0 and
are cropped.  H4 is read on the box padded by m cells, whose axes have
lengths n, by one of two paths that give the same valid convolution.

A padded box wholly in the interior branch R1 (q1 = yr - xK > 0 and
q2 = xs - yK > 0 at every node) takes the moment path.  There
H4 = x^2 P - 2xy G + y^2 R with P, G, R functions of (r, s, K) alone, and
the bump is even in every coordinate, so its odd moments vanish and

    H4 * phi = x^2 (P * phi0) + P * phi_xx - 2xy (G * phi0) + y^2 (R * phi0) + R * phi_yy,

where phi0 sums the kernel over its x and y taps and phi_xx, phi_yy weight
that sum by the squared x or y offset.  Each term is a valid 3-D correlation
of (2m + 1)^3 taps on the padded (r, s, K) grid, and the output is one
broadcast over x and y; no array of the padded 5-D box is built.  The path is
chosen exactly: on x, y, r, s, K >= 0, q1 is least at the corner (x_hi,
y_lo, r_lo, K_hi) and q2 at (x_lo, y_hi, s_lo, K_hi), and float products and
differences round monotonically, so R1 at those two corners is R1 at every
node.  The default boxes take it from about Q = 2.71 on; at Q = 2 K(rs) is
larger, and the padded box reaches past the cuts: q1, q2 reach -0.0516.

Every other box, one that meets a cut or lies off R1, takes the FFT path:
the convolution is circular on the padded box, transformed with numpy.fft
at the lengths n themselves.  The complex half-spectrum is filled one
x-slab at a time: H4 on the slab, then its rfft along K and fft along s, r
and y while the slab is in cache; one in-place fft along x completes it.
It is multiplied by the spectrum of the kernel centred on index 0.  The
bump is even in every coordinate, so that spectrum is real and is summed
from per-axis cosine tables without a transform.  Along an axis, output
entry j of the centred kernel of 2m + 1 taps reads the samples j-m .. j+m,
so entries m .. n-m-1 read no wrapped sample and equal the linear
convolution's valid part exactly.  The inverse keeps only those: it runs
axis by axis, in place, and drops the other rows of each axis before
transforming the next.

No box of more than MAX_NODES nodes is built: the kernel's and the padded
grid's node counts are worked out from the spacing first, and a larger box
is refused with ConfigError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bellman import (BLOCK_WEIGHTS, BellmanConfig, _branches, _h4_t, b4_batch, domain_masks,
                      evaluate_batch, h4_value, kn_of_t, one_leg_margin)
from .errors import ConfigError, DomainError, InvalidInputError


def h4_raw(x, y, r, s, K):
    """H4 of five real variables (x, y scalars > 0), vectorized; the
    arguments broadcast, so sparse grid axes are never expanded."""
    x, y, r, s, K = (np.asarray(v, dtype=float) for v in (x, y, r, s, K))
    if (r * s - K * K <= 0.0).any():
        raise DomainError("H4 needs K^2 < rs throughout")
    return h4_value(x, y, r, s, K)


def _h4_slabs(axes):
    """H4 on the grid spanned by axes, one x-slab at a time, so the
    temporaries stay slab-sized; elementwise, so each slab equals h4_raw's
    on the whole grid bit for bit."""
    rest = np.meshgrid(*axes[1:], indexing="ij", sparse=True)
    for x in axes[0]:
        yield h4_value(x, *rest)


# The most nodes a kernel box or a padded grid may have: the complex
# half-spectrum of a padded grid this size takes about 134 MB.  The default
# grids have at most 15^4 * 16 nodes, about 0.8 million.
MAX_NODES = 2 ** 24


def _refuse_past_max_nodes(widths, what):
    """ConfigError for a box of more than MAX_NODES nodes, given its nodes per
    axis as floats (inf included), before any of it is built."""
    if any(w > MAX_NODES for w in widths) or math.prod(map(math.ceil, widths)) > MAX_NODES:
        raise ConfigError(f"{what} of {' x '.join(f'{np.ceil(w):.4g}' for w in widths)} nodes "
                          f"exceeds MAX_NODES = {MAX_NODES}; coarsen the spacing "
                          "or shrink the box")


@dataclass(frozen=True)
class GridSpec:
    """Uniform 5-D box for the mollification grid, axis order (x, y, r, s, K)."""

    lo: tuple
    hi: tuple
    spacing: float

    def __post_init__(self):
        if len(self.lo) != 5 or len(self.hi) != 5:
            raise ConfigError("grid bounds must have five entries (x, y, r, s, K)")
        if not np.isfinite([*self.lo, *self.hi, self.spacing]).all():
            raise InvalidInputError("non-finite grid bounds or spacing")
        if self.spacing <= 0.0:
            raise ConfigError("grid spacing must be positive")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ConfigError("grid box must have positive extent on every axis")

    def axes(self, pad_cells=0):
        return [np.arange(l - pad_cells * self.spacing,
                          h + (pad_cells + 0.5) * self.spacing, self.spacing)
                for l, h in zip(self.lo, self.hi)]


def bump_kernel(ell: float, spacing: float):
    """Discretized normalized bump with support radius ell; weights sum to 1.

    Returns the (2m+1)^5 weights and the kernel radius m in cells, the largest
    offset that carries weight: 3 cells at spacing ell/4, where every tap
    with a coordinate of 4 cells lies on or outside |u| = ell and weighs 0.
    The all-zero outer faces of the floor(ell/spacing) box are cropped as the
    computed weights show them, not as ell/spacing predicts them under roundoff.
    A box of more than MAX_NODES taps is refused before it is built.
    """
    reach = np.floor(ell / spacing)
    _refuse_past_max_nodes([2 * reach + 1] * 5, "kernel box")
    n = int(reach)
    ax = np.arange(-n, n + 1) * spacing
    grids = np.meshgrid(*([ax] * 5), indexing="ij", sparse=True)
    r2 = sum(g * g for g in grids) / (ell * ell)
    w = np.zeros_like(r2)
    inside = r2 < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    m = int(np.abs(np.argwhere(w) - n).max())
    return (w / w.sum())[(slice(n - m, n + m + 1),) * 5], m


def _kernel_spectrum(kernel, m, n):
    """rfftn over the box n of the (2m+1)^5 kernel centred on index 0, one
    slab of axis-0 frequencies at a time.

    The bump is even in every coordinate, so the spectrum is real: the sum
    over taps u of kernel(u) times prod_i cos(2 pi w_i u_i / n_i), contracted
    one axis at a time against that axis's cosine table, axes 4 down to 1
    once and axis 0 per slab, so the whole spectrum is never held.  Axis 4
    has the fewest frequencies, n_4 // 2 + 1, and taking it first keeps the
    partial sums small.  Each contraction appends its frequencies last, so
    they end in the order 4 .. 1, and each slab is transposed back.
    """
    taps = np.arange(-m, m + 1)
    tables = []
    for i, k in enumerate(n):
        freqs = np.arange(k // 2 + 1 if i == 4 else k)
        tables.append(np.cos(2.0 * np.pi * (np.outer(freqs, taps) % k) / k))
    partial = kernel
    for i in range(4, 0, -1):
        partial = np.tensordot(partial, tables[i], axes=(i, 1))
    for row in tables[0]:
        yield np.tensordot(row, partial, axes=(0, 0)).T


# slices of one axis for the nodes ahead of, at and behind a centre node
_STEP = {1: (slice(2, None), slice(1, -1), slice(0, -2)),
         -1: (slice(0, -2), slice(1, -1), slice(2, None)),
         0: (slice(None), slice(None), slice(None))}


class MollifiedH4:
    """H4 * phi_ell sampled on a uniform 5-D grid: its axes and node values."""

    def __init__(self, ell, axes, values):
        self.ell = ell
        self.axes = axes
        self.values = values

    def cut_distance(self):
        """Per grid node, the normalized distance to the nearer H4 branch cut."""
        x, y, r, s, K = np.meshgrid(*self.axes, indexing="ij", sparse=True)
        q1 = np.abs(y * r - x * K) / np.sqrt(K * K + r * r + x * x + y * y)
        q2 = np.abs(x * s - y * K) / np.sqrt(K * K + s * s + x * x + y * y)
        return np.minimum(q1, q2)

    def deviation_from_raw(self):
        """(max |moll - raw| overall, max over nodes farther than ell from cuts)."""
        raw = h4_raw(*np.meshgrid(*self.axes, indexing="ij", sparse=True))
        dev = np.abs(self.values - raw)
        far = self.cut_distance() > self.ell
        far_max = float(dev[far].max()) if far.any() else float("nan")
        return float(dev.max()), far_max

    def second_difference_min(self):
        """Min of the centered second difference over every direction of
        {-1, 0, 1}^5 (121 up to sign, which leaves the difference unchanged).

        H4 is jointly convex in its five variables, so both the raw and the
        mollified grids must return nonnegative values up to roundoff.
        """
        v = self.values
        worst = np.inf
        for e in itertools.product((-1, 0, 1), repeat=5):
            if next((d for d in e if d), -1) < 0:
                continue                # the zero direction, or -e of a kept e
            ahead, mid, back = zip(*(_STEP[d] for d in e))
            dd = v[ahead] - 2.0 * v[mid] + v[back]
            worst = min(worst, float(dd.min()))
        return worst


def _fft_convolve(kernel, m, padded_axes):
    """The valid part of H4 * kernel on the padded box, by one circular
    convolution at the box's own lengths n: any box of the domain."""
    n = tuple(len(a) for a in padded_axes)
    spectrum = np.empty(n[:-1] + (n[-1] // 2 + 1,), dtype=complex)
    for i, slab in enumerate(_h4_slabs(padded_axes)):
        # rfft along K, then fft along s, r and y: per-axis, on one slab
        spectrum[i] = np.fft.rfftn(slab)
    np.fft.fft(spectrum, axis=0, out=spectrum)
    for k, weights in enumerate(_kernel_spectrum(kernel, m, n)):
        spectrum[k] *= weights
    # unnormalized inverse in place, pruned to the valid rows after each leading axis
    for i in range(4):
        np.fft.ifft(spectrum, axis=i, norm="forward", out=spectrum)
        spectrum = spectrum[(slice(None),) * i + (slice(m, n[i] - m),)]
    values = np.fft.irfft(spectrum, n[4], axis=4, norm="forward")[..., m:n[4] - m]
    return values * (1.0 / np.prod(n))


def _in_r1(axes):
    """Whether every node of the padded box lies in H4's interior branch R1:
    `_branches` at (x_hi, y_lo, r_lo, s_lo, K_hi) and (x_lo, y_hi, r_lo, s_lo,
    K_hi), where q1 and q2 are least in floats (module docstring)."""
    x, y, r, s, k = axes
    in_r1 = _branches(np.array([x[-1], x[0]]), np.array([y[0], y[-1]]), r[0], s[0], k[-1])[2][0]
    return bool(in_r1.all())


def _moment_convolve(kernel, m, padded_axes, spacing):
    """The valid part of H4 * kernel on a padded box wholly in R1, from the
    kernel's moments phi0, phi_xx, phi_yy (module docstring).  P = s h,
    G = K h and R = r h with h = 1/(rs - K^2), as `_fill` builds the R1
    branch; each is correlated with the three moments at once."""
    x, y = (a[m:len(a) - m] for a in padded_axes[:2])
    r, s, k = np.meshgrid(*padded_axes[2:], indexing="ij", sparse=True)
    h, kh = _h4_t(r * s, (k,))
    d2 = (spacing * np.arange(-m, m + 1)) ** 2
    moments = np.stack([kernel.sum(axis=(0, 1)),
                        (d2[:, None, None, None, None] * kernel).sum(axis=(0, 1)),
                        (d2[:, None, None, None] * kernel).sum(axis=(0, 1))], axis=-1)
    (p0, pxx, _), (g0, _, _), (r0, _, ryy) = (
        np.moveaxis(np.tensordot(sliding_window_view(f, (2 * m + 1,) * 3), moments, axes=3),
                    -1, 0)
        for f in (s * h[0], kh[0], r * h[0]))
    x, y = x[:, None, None, None, None], y[:, None, None, None]
    return x * x * p0 + (pxx + ryy) - 2.0 * x * y * g0 + y * y * r0


def mollify_h4(ell: float, spec: GridSpec) -> MollifiedH4:
    """H4 * phi_ell on the grid described by spec, by the moment path on a
    padded box wholly in R1 and by the FFT path on any other.

    The grid must be finer than ell/4 and the box, enlarged by the kernel
    radius (the largest offset with weight, 3 cells at spacing ell/4), must
    stay inside {x, y > 0, rs > K^2, K >= 0} so every sample the kernel
    weighs is a valid H4 evaluation.  Neither the kernel box nor the padded
    grid may have more than MAX_NODES nodes.
    """
    if not np.isfinite(ell):
        raise InvalidInputError(f"non-finite mollification radius {ell!r}")
    if ell <= 0.0:
        raise ConfigError("mollification radius must be positive")
    if spec.spacing > ell / 4.0 * (1.0 + 1e-12):
        raise ConfigError(
            f"grid spacing {spec.spacing} too coarse for ell = {ell}; need <= ell/4")
    # np.arange's lengths for the axes padded by the uncropped kernel radius,
    # floor(ell/spacing) >= m cells: a bound on the padded grid, taken before
    # the kernel or an axis is built
    reach = np.floor(ell / spec.spacing)
    _refuse_past_max_nodes([(h - l) / spec.spacing + 2 * reach + 0.5
                            for l, h in zip(spec.lo, spec.hi)], "padded grid")
    kernel, m = bump_kernel(ell, spec.spacing)

    padded_axes = spec.axes(pad_cells=m)
    x_lo, y_lo = padded_axes[0][0], padded_axes[1][0]
    r_lo, s_lo = padded_axes[2][0], padded_axes[3][0]
    k_lo, k_hi = padded_axes[4][0], padded_axes[4][-1]
    if x_lo <= 0.0 or y_lo <= 0.0:
        raise ConfigError("padded grid must keep x, y positive")
    if r_lo <= 0.0 or s_lo <= 0.0:
        raise ConfigError("padded grid must keep r, s positive")
    if k_lo < 0.0:
        raise ConfigError("padded grid must keep K nonnegative")
    if k_hi * k_hi >= r_lo * s_lo:
        raise ConfigError("padded grid violates K^2 < rs; shrink the K axis or "
                          "move the (r, s) box away from rs = K^2")

    if _in_r1(padded_axes):
        values = _moment_convolve(kernel, m, padded_axes, spec.spacing)
    else:
        values = _fft_convolve(kernel, m, padded_axes)
    axes = spec.axes(pad_cells=0)
    expect = tuple(len(a) for a in axes)
    if values.shape != expect:
        raise ConfigError(f"convolution shape {values.shape} != grid shape {expect}")
    return MollifiedH4(ell=ell, axes=axes, values=values)


def default_grid_spec(cfg: BellmanConfig, cells=8):
    """A compact box around (x, y, r, s) = (0.45, 0.45, 1.15, 1.15), `cells`
    cells of cfg.ell/4 wide on each of those axes (centred, so `cells` must
    be even), with the K axis running one node past the range of K(rs) over
    the (r, s) box on each side."""
    if cells % 2:
        raise ConfigError(f"grid cells must be even, got {cells}")
    ell = cfg.ell
    h = ell / 4.0
    half = cells // 2 * h
    x0, y0, r0, s0 = 0.45, 0.45, 1.15, 1.15
    lo = [x0 - half, y0 - half, r0 - half, s0 - half]
    hi = [x0 + half, y0 + half, r0 + half, s0 + half]
    # K(t) rises on t < 16 Q, so over the box K(rs) is least and largest at
    # its (r, s) corners; the spare node on each side keeps every K that
    # composite_one_leg_margins interpolates between interior nodes, where
    # np.gradient differences centrally.  mollify_h4 adds the kernel's
    # clearance itself, by padding K with m cells, which must keep K >= 0.
    ks = kn_of_t(np.array([lo[2] * lo[3], hi[2] * hi[3]]), cfg.Q)[0][0]
    m = bump_kernel(ell, h)[1]
    k_lo = max(h * (np.floor(ks.min() / h) - 1), m * h)
    k_hi = h * (np.ceil(ks.max() / h) + 1)
    return GridSpec(lo=tuple(lo + [k_lo]), hi=tuple(hi + [k_hi]), spacing=h)


def composite_one_leg_margins(moll: MollifiedH4, cfg: BellmanConfig,
                              n_pairs=200, seed=0):
    """One-leg margins of B with the H4 block replaced by its mollification,
    at the weakened constant 1/Q.

    Pairs are drawn on grid nodes of the (x, y, r, s) box, with scalar
    positive x, y as in the real-variable mollification setting, so K = K(rs)
    is the only coordinate that is interpolated: the values and the grid
    gradient (np.gradient, edge_order=2) are read at the node, linearly
    between the two K nodes around K.  The bounds checks are that some
    (r, s) node of the grid lies in D_Q, that at least two drawn nodes do,
    and that K stays on the K axis; x, y, r and s are nodes by construction.  Returns the array of margins
    B(V) - B(V0) - dB(V0)(V - V0) - (1/Q)|x - x0||y - y0|
    over the pairs with V != V0; a pair drawn on one node twice has margin 0
    identically and is dropped, so it cannot mask the least real margin.
    """
    rng = np.random.default_rng(seed)
    axx, axy, axr, axs, axk = moll.axes
    if not domain_masks(1.0, 1.0, axr[:, None], axs, cfg)[0].any():
        raise ConfigError("no (r, s) node of the grid lies in D_Q; "
                          "move the box to 1 <= rs <= Q")
    idx = rng.integers(0, [len(axx), len(axy), len(axr), len(axs)],
                       size=(2 * n_pairs, 4))
    x, y = axx[idx[:, 0]], axy[idx[:, 1]]
    r, s = axr[idx[:, 2]], axs[idx[:, 3]]
    keep = domain_masks(x, y, r, s, cfg)[0]      # (r, s) pairs in D_Q
    if keep.sum() < 2:
        raise ConfigError(f"fewer than two of the {2 * n_pairs} drawn nodes "
                          f"(seed {seed}) lie in D_Q; draw more pairs")
    x, y, r, s = x[keep], y[keep], r[keep], s[keep]
    node = tuple(idx[keep].T)
    t = r * s
    (k, kp), _ = kn_of_t(t, cfg.Q, order=1)
    if (k < axk[0]).any() or (k > axk[-1]).any():
        raise ConfigError("K(rs) leaves the grid's K axis; widen it")
    j = np.minimum(np.searchsorted(axk, k, side="right") - 1, len(axk) - 2)
    f = (k - axk[j]) / (axk[j + 1] - axk[j])
    fields = (moll.values, *np.gradient(moll.values, *moll.axes, edge_order=2))
    m_val, *m_grad = (g[node + (j,)] * (1 - f) + g[node + (j + 1,)] * f for g in fields)

    full = evaluate_batch(x, y, r, s, cfg, order=1)
    raw4 = b4_batch(x, y, r, s, cfg)
    c7 = BLOCK_WEIGHTS[3]      # B4's weight
    value = full.value + c7 * (m_val - raw4.value)
    grad = np.empty((len(x), 4))
    grad[:, 0] = full.g[0] - c7 * raw4.g[0] + c7 * m_grad[0]
    grad[:, 1] = full.g[1] - c7 * raw4.g[1] + c7 * m_grad[1]
    grad[:, 2] = full.g[2] - c7 * raw4.g[2] + c7 * (m_grad[2] + m_grad[4] * kp * s)
    grad[:, 3] = full.g[3] - c7 * raw4.g[3] + c7 * (m_grad[3] + m_grad[4] * kp * r)

    half = len(x) // 2
    i0, i1 = np.arange(half), np.arange(half, 2 * half)
    dv = np.stack([x[i1] - x[i0], y[i1] - y[i0], r[i1] - r[i0], s[i1] - s[i0]], axis=1)
    unit = np.ones((half, 1))           # the unit directions of scalar x, y > 0
    margins, _, _ = one_leg_margin(grad[i0].T, value[i0], unit, unit, value[i1],
                                   dv[:, :1], dv[:, 1:2], dv[:, 2], dv[:, 3], cfg.Q,
                                   constant=1.0)
    return margins[(dv != 0.0).any(axis=1)]
