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
are cropped.  H4 is read on the box padded by m cells, whose (r, s, K) axes
have lengths n.

In the interior branch R1 (q1 = yr - xK > 0 and q2 = xs - yK > 0),
H4 = x^2 P - 2xy G + y^2 R with P, G, R functions of (r, s, K) alone, and
off R1 H4 is that polynomial minus a kink, zero on R1.  Every box takes the
moment path for the polynomial: the bump is even in every coordinate, so
its odd moments vanish and

    poly * phi = x^2 (P * phi0) + P * phi_xx - 2xy (G * phi0) + y^2 (R * phi0) + R * phi_yy,

where phi0 sums the kernel over its x and y taps and phi_xx, phi_yy weight
that sum by the squared x or y offset.  Each term is a valid 3-D
correlation on the padded (r, s, K) grid, and the output is one broadcast
over x and y.  Then the kink is mollified on the (x, y) rows of the padded
box that leave R1, and only there: H4 is sampled on no other node.  A row
leaves R1 exactly when `_branches` finds a node off R1 at its corners: for
fixed x, y > 0 on r, s, K >= 0, q1 is least at (r_lo, K_hi) and q2 at
(s_lo, K_hi), and float products and differences round monotonically.  The
default boxes have no such row from about Q = 2.71 on; at Q = 2 the padded
box reaches past the cuts in 30 of its 225 rows.  P, G and R grow like
1/(rs - K^2), and the rounding of the polynomial's transforms with them, so
a box whose (rs - K^2)/rs falls below R1_ROOM skips the polynomial and
convolves every row as H4 itself.

All correlations are circular on the padded (r, s, K) grid, transformed
with numpy.fft at the lengths n themselves, and multiplied by the spectra
of the kernel's (x, y) taps centred on index 0.  The bump is even in every
coordinate, so those spectra are real, summed from per-axis cosine tables
without a transform, and a tap at offset (u, v) shares the spectrum of
(|u|, |v|).  Along an axis, output entry j of the centred kernel of 2m + 1
taps reads the samples j-m .. j+m, so entries m .. n-m-1 read no wrapped
sample and equal the linear convolution's valid part exactly.  The inverse
keeps only those: it runs axis by axis and drops the other rows of each
axis before transforming the next.  Each row off R1 is transformed once;
each output row in reach of one sums the products of the rows it reaches
with their taps' spectra and is inverted once.  No array of the padded 5-D
box is built.

No box of more than MAX_NODES nodes is built: the kernel's and the padded
grid's node counts are worked out from the spacing first, and a larger box
is refused with ConfigError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

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


# The most nodes a kernel box or a padded grid may have: the output of a
# grid this size takes about 134 MB, and so may the half-spectra of its rows
# off R1.  The default grids have at most 15^4 * 16 nodes, about 0.8 million.
MAX_NODES = 2 ** 24

# The least (rs - K^2) / rs on a padded box whose H4 is read as the R1
# polynomial less its kink.  P, G and R grow like 1/(rs - K^2), and the
# rounding of their transforms with them: about 3e-18 of 1/(rs - K^2),
# relative to H4, once that passes 1e3.  On a box nearer rs = K^2 every row
# is convolved as H4 itself.
R1_ROOM = 1e-3


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
    return w[(slice(n - m, n + m + 1),) * 5] / w.sum(), m


def _kernel_spectrum(kernel, m, n):
    """The real rfftn over the (r, s, K) lengths n of the kernel's (x, y) taps
    at offsets (u, v) >= 0, centred on index 0: shape
    (m + 1, m + 1, n[0], n[1], n[2] // 2 + 1), the bump being even in x and
    y, so the taps at (+-u, +-v) share entry (u, v).

    The bump is even in every coordinate, so each spectrum is real: the sum
    over taps c of kernel(u, v, c) times prod_i cos(2 pi w_i c_i / n_i),
    contracted one axis at a time against that axis's cosine table.  Each
    contraction takes axis 2 and appends its frequencies last, so they end in
    the order r, s, K.
    """
    taps = np.arange(-m, m + 1)
    spectra = kernel[m:, m:]
    for i, k in enumerate(n):
        freqs = np.arange(k // 2 + 1 if i == 2 else k)
        table = np.cos(2.0 * np.pi * (np.outer(freqs, taps) % k) / k)
        spectra = np.tensordot(spectra, table, axes=(2, 1))
    return spectra


def _pruned_inverse(spectrum, m, n):
    """The entries m .. n-m-1 on each (r, s, K) axis of the inverse rfftn,
    over the last three axes at lengths n: axis by axis, dropping the other
    rows of each axis before transforming the next."""
    spectrum = np.fft.ifft(spectrum, axis=-3)[..., m:n[0] - m, :, :]
    spectrum = np.fft.ifft(spectrum, axis=-2)[..., m:n[1] - m, :]
    return np.fft.irfft(spectrum, n[2], axis=-1)[..., m:n[2] - m]


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


def _r1_fields(r, s, k):
    """P = s h, G = K h and R = r h with h = 1/(rs - K^2) on the (r, s, K)
    mesh, as `_fill` builds the R1 branch: there H4 = x^2 P - 2xy G + y^2 R."""
    h, kh = _h4_t(r * s, (k,))
    return s * h[0], kh[0], r * h[0]


def _moment_convolve(spectra, m, padded_axes, spacing, fields):
    """The valid part of (x^2 P - 2xy G + y^2 R) * kernel, from the kernel's
    moments phi0, phi_xx, phi_yy (module docstring), whose spectra are sums
    of the tap spectra: each folded tap (u, v) stands for its count of
    offsets (+-u, +-v), and phi_xx, phi_yy weight it by the squared x or y
    offset, (u spacing)^2 or (v spacing)^2."""
    x, y = (a[m:len(a) - m] for a in padded_axes[:2])
    n = tuple(len(a) for a in padded_axes[2:])
    taps = np.arange(m + 1)
    count = np.where(taps == 0, 1.0, 2.0)
    d2 = count * (spacing * taps) ** 2
    x_sums = np.tensordot(count, spectra, axes=(0, 0))
    phi0 = np.tensordot(count, x_sums, axes=1)
    phi_xx = np.tensordot(count, np.tensordot(d2, spectra, axes=(0, 0)), axes=1)
    phi_yy = np.tensordot(d2, x_sums, axes=1)
    fp, fg, fr = (np.fft.rfftn(f) for f in fields)
    p0, g0, r0, curv = _pruned_inverse(
        np.stack([fp * phi0, fg * phi0, fr * phi0, fp * phi_xx + fr * phi_yy]), m, n)
    x, y = x[:, None, None, None, None], y[:, None, None, None]
    # in place: one 5-D temporary at a time
    values = np.empty((len(x), len(y)) + p0.shape)
    values[...] = x * x * p0
    values += curv
    values -= 2.0 * x * y * g0
    values += y * y * r0
    return values


def _kink(x, y, rsk, fields):
    """x^2 P - 2xy G + y^2 R minus H4 on the (r, s, K) mesh rsk at one (x, y),
    set to 0 on the R1 nodes, where H4 is that polynomial; without fields (a
    box within R1_ROOM of rs = K^2), minus H4."""
    if fields is None:
        return -h4_value(x, y, *rsk)
    p, g, rr = fields
    kink = x * x * p - 2.0 * x * y * g + y * y * rr
    kink -= h4_value(x, y, *rsk)
    kink[_branches(x, y, *rsk)[2][0]] = 0.0
    return kink


def _subtract_kink(values, spectra, m, padded_axes, fields):
    """Subtract from the moment path's values the valid part of kink * kernel,
    where the kink is x^2 P - 2xy G + y^2 R minus H4, set to 0 on R1 nodes,
    read on the (x, y) rows of the padded box that leave R1 (module
    docstring).  The bump is even, so the correlation is the convolution."""
    x, y, r, s, k = padded_axes
    off = (np.ones((len(x), len(y)), dtype=bool) if fields is None
           else ~_branches(x[:, None], y, r[0], s[0], k[-1])[2][0])
    if not off.any():
        return
    rows = np.empty((off.sum(),) + spectra.shape[2:], dtype=complex)
    rsk = np.meshgrid(r, s, k, indexing="ij", sparse=True)
    for (i, j), row in zip(np.argwhere(off), rows):
        row[...] = np.fft.rfftn(_kink(x[i], y[j], rsk, fields))
    index = np.full(off.shape, -1)
    index[off] = np.arange(len(rows))
    fold = np.abs(np.arange(-m, m + 1))
    spectra = spectra.astype(complex)       # complex times complex: no cast per product
    w, n = 2 * m + 1, tuple(len(a) for a in padded_axes[2:])
    acc, product = np.empty((2,) + rows.shape[1:], dtype=complex)
    for i, j in np.ndindex(values.shape[:2]):
        window = index[i:i + w, j:j + w]
        a, b = np.nonzero(window >= 0)
        if a.size:
            acc[...] = 0.0
            for slot, u, v in zip(window[a, b].tolist(), fold[a].tolist(), fold[b].tolist()):
                np.add(acc, np.multiply(rows[slot], spectra[u, v], out=product), out=acc)
            values[i, j] -= _pruned_inverse(acc, m, n)


def mollify_h4(ell: float, spec: GridSpec) -> MollifiedH4:
    """H4 * phi_ell on the grid described by spec: the moment path, less the
    mollified kink on the rows of the padded box that leave R1.

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

    axes = spec.axes(pad_cells=0)
    shape, expect = tuple(len(a) - 2 * m for a in padded_axes), tuple(len(a) for a in axes)
    if shape != expect:
        raise ConfigError(f"convolution shape {shape} != grid shape {expect}")
    spectra = _kernel_spectrum(kernel, m, tuple(len(a) for a in padded_axes[2:]))
    if k_hi * k_hi <= (1.0 - R1_ROOM) * r_lo * s_lo:
        fields = _r1_fields(*np.meshgrid(*padded_axes[2:], indexing="ij", sparse=True))
        values = _moment_convolve(spectra, m, padded_axes, spec.spacing, fields)
    else:
        fields, values = None, np.zeros(shape)
    _subtract_kink(values, spectra, m, padded_axes, fields)
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
