"""Vector-valued martingales on finite dyadic filtrations.

A depth-n dyadic martingale is stored as its node values: level k holds a
(2^k, d) array, level k values being the averages of their two children, so
the martingale property is exact by construction.  Increments df_k at level
k >= 1 are child minus parent; the two children of a node carry opposite
increments.  The tree layout comes from `bellsub.weights`.  Discrete
differential subordination of Y to X reduces to |dY_k| <= |dX_k| at every
node, the roots Y_0, X_0 being the increments of level 0 (the time-0 term
of the square bracket): the running sums of |dX|^2 - |dY|^2 along any path
are then nonnegative and nondecreasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidInputError, SubordinationError
from .weights import (WeightTree, dyadic_averages, levels_from_increments,
                      pair_increments, row_norm, row_sum)

# relative slack for |dY| <= |dX| checks: rotation-built pairs are
# norm-preserving only up to float rounding
SUBORDINATION_RTOL = 1e-9


class DyadicMartingale:
    """Node values of an H-valued martingale on a depth-n dyadic filtration."""

    def __init__(self, levels):
        self.levels = [np.asarray(a, dtype=float) for a in levels]
        for k, lev in enumerate(self.levels):
            if lev.ndim != 2 or lev.shape[0] != 2 ** k:
                raise InvalidInputError(f"level {k} must have shape (2^{k}, d)")
            if lev.shape[1] != self.levels[0].shape[1]:
                raise InvalidInputError("all levels must share the vector dimension")
            if not np.isfinite(lev).all():
                raise InvalidInputError("non-finite node values")
        self.depth = len(self.levels) - 1
        self.dim = self.levels[0].shape[1]

    @staticmethod
    def from_leaves(leaves) -> "DyadicMartingale":
        leaves = np.asarray(leaves, dtype=float)
        if leaves.ndim == 1:
            leaves = leaves[:, None]
        return DyadicMartingale(dyadic_averages(leaves))

    @property
    def leaves(self):
        return self.levels[-1]

    @property
    def initial(self):
        return self.levels[0][0]


@dataclass
class SimConfig:
    """Knobs for randomized martingale experiments."""

    depth: int
    dim: int

    def __post_init__(self):
        if self.depth < 0 or self.depth > 20:
            raise InvalidInputError("depth must lie in [0, 20] for exhaustive tree work")
        if self.dim < 1:
            raise InvalidInputError("dim must be >= 1")


def random_martingale(cfg: SimConfig, rng) -> DyadicMartingale:
    """Martingale with i.i.d. standard normal leaf coordinates, drawn from
    the generator rng."""
    leaves = rng.standard_normal((2 ** cfg.depth, cfg.dim))
    return DyadicMartingale.from_leaves(leaves)


def transform(X: DyadicMartingale, sigma, sigma0=1.0) -> DyadicMartingale:
    """Predictable multiplier: dY at level k+1 is sigma[k] (per parent node)
    times dX, and Y_0 = sigma0 X_0.  Requires finite |sigma| <= 1 throughout;
    the result is differentially subordinate to X by construction.
    """
    sigma = [np.asarray(s, dtype=float) for s in sigma]
    if len(sigma) != X.depth:
        raise InvalidInputError(f"need {X.depth} sigma levels, got {len(sigma)}")
    if not (np.isfinite(sigma0) and all(np.isfinite(s).all() for s in sigma)):
        raise InvalidInputError("non-finite multipliers")
    if abs(sigma0) > 1.0 or any((np.abs(s) > 1.0).any() for s in sigma):
        raise SubordinationError("|sigma| > 1 would break subordination")
    for k, s in enumerate(sigma):
        if s.shape != (2 ** k,):
            raise InvalidInputError(f"sigma level {k} must have 2^{k} entries")
    dY = (s[:, None, None] * dX for s, dX in zip(sigma, pair_increments(X.levels)))
    return DyadicMartingale(levels_from_increments(sigma0 * X.levels[0], dY))


def rotation_transform(X: DyadicMartingale, rng) -> DyadicMartingale:
    """Subordinate pair that is not a multiplier: each parent node carries a
    random orthogonal matrix applied to both children's increments (and the
    root value).  Norm-preserving, hence subordinate, but genuinely
    non-scalar in dimension >= 2.  The root's rotation is drawn first, then
    each level's in one batch, in node order.  `_orthogonal_factors` turns
    the draws into rotations as `np.linalg.qr` does; at d = 2 it runs
    LAPACK's own Householder arithmetic (dgeqr2 with dlarfg, dlapy2 and
    dlarf, then dorg2r) in numpy, bit for bit, without the QR call.
    """
    d = X.dim
    q0 = _orthogonal_factors(rng.standard_normal((1, d, d)))[0]

    def rotated(dX):
        rots = _orthogonal_factors(rng.standard_normal((len(dX), d, d)))
        return _rotate_pairs(rots, dX) if d == 2 else np.einsum("pij,pcj->pci", rots, dX)

    return DyadicMartingale(levels_from_increments(X.levels[0] @ q0.T,
                                                   map(rotated, pair_increments(X.levels))))


def _rotate_pairs(rots, dX):
    """`np.einsum("pij,pcj->pci", rots, dX)` at d = 2, bit for bit: two
    products per coordinate and their sum, plus +0.0, because einsum starts
    its sums at +0.0 and so never returns -0.0."""
    out, term = np.empty_like(dX), np.empty(dX.shape[:2])
    for i in (0, 1):
        y = out[..., i]
        np.multiply(rots[:, i, None, 0], dX[..., 0], out=y)
        y += np.multiply(rots[:, i, None, 1], dX[..., 1], out=term)
        y += 0.0
    return out


# rows per pass of `_householder_2x2`: keeps its temporaries cache-resident
# and small enough for malloc to reuse, so that they fault in no new pages
_ROWS = 4096


def _orthogonal_factors(g):
    """q·sign(diag r) for each matrix of a (p, d, d) stack, (q, r) being its
    `np.linalg.qr` factors: a Haar-distributed rotation per Gaussian draw.
    At d = 2, `_householder_2x2` gives the QR's bits on the rows that
    `_householder_exact` admits, chunk by chunk; the other rows, and every
    other d, go through `np.linalg.qr`.
    """
    if g.shape[-1] != 2:
        return _qr_factors(g)
    out, exact = np.empty_like(g), np.empty(len(g), dtype=bool)
    # rows left to the QR may divide by zero or overflow here
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, len(g), _ROWS):
            part = slice(lo, lo + _ROWS)
            _householder_2x2(g[part], out[part])
            exact[part] = _householder_exact(g[part])
    if not exact.all():
        out[~exact] = _qr_factors(g[~exact])
    return out


def _qr_factors(g):
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]


# `_householder_2x2` is exact on 2x2 matrices whose a21 is nonzero and whose
# entries are 0 or of magnitude in [2^-200, 2^200].  There 1 <= tau <= 2,
# 2^-402 < |v2| <= 1 and |beta| >= 2^-200, far above dlarfg's rescaling
# threshold 2^-969; the fma operands stay below 2^203, so no split
# overflows; and q22's product exceeds 2^-804, far above 2^-970, below
# which TwoProduct's error term may underflow.  r22's product is smaller only
# where w cancels, so a22 != 0 (else w = a12); only r22's sign is used, which
# so small a product cannot flip against |a22| >= 2^-200.
_EXACT_RANGE = (1.0 / 2.0 ** 200, 2.0 ** 200)


def _householder_exact(g):
    """Rows of a (p, 2, 2) stack whose bits `_householder_2x2` reproduces.
    Left out: a21 = 0, LAPACK's tau = 0 branch (a zero first column among
    them); subnormal entries, which may reach dlarfg's rescaling loop; inf,
    nan and every other entry outside `_EXACT_RANGE`."""
    mag = np.abs(g)
    inside = (mag <= _EXACT_RANGE[1]) & ((mag >= _EXACT_RANGE[0]) | (mag == 0.0))
    return inside.all(axis=(1, 2)) & (g[:, 1, 0] != 0.0)


def _householder_2x2(g, out):
    """q·sign(diag r) of each 2x2 matrix of a stack, by LAPACK's arithmetic,
    into out.  dgeqr2 makes one reflector: dlarfg takes beta = -sign(a11)
    dlapy2(a11, a21), tau = (beta - a11)/beta and v2 = a21·(1/(a11 - beta)),
    and r11 = beta; dlarf gives r22 = a22 - tau w v2, w = a12 + a22 v2.
    dorg2r builds q11 = 1 - tau, q12 = q21 = -tau v2 and q22 = 1 - tau v2 v2.
    OpenBLAS's dgemv rounds w's product and sum apart, but its dger fuses
    the updates of q22 and r22 into one rounding, so those two are `_fma`s.
    """
    a11, a12, a21, a22 = (g[:, i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    # dlapy2: big·sqrt(1 + (small/big)^2)
    big, small = np.abs(a11), np.abs(a21)
    big, small = np.maximum(big, small), np.minimum(big, small)
    ratio = small / big
    beta = -np.copysign(big * np.sqrt(1.0 + ratio * ratio), a11)
    tau = (beta - a11) / beta
    v2 = a21 * (1.0 / (a11 - beta))
    q12 = -tau * v2
    r22 = _fma(v2, -tau * (a12 + a22 * v2), a22)
    s1, s2 = np.sign(beta), np.sign(r22)
    np.multiply(1.0 - tau, s1, out=out[:, 0, 0])
    np.multiply(q12, s1, out=out[:, 1, 0])
    np.multiply(q12, s2, out=out[:, 0, 1])
    np.multiply(_fma(v2, q12, 1.0), s2, out=out[:, 1, 1])


# Veltkamp's constant 2^27 + 1 splits a double into two 26-bit halves
_SPLIT = 134217729.0


def _fma(a, b, c):
    """a·b + c with one rounding to nearest, as a fused multiply-add rounds
    it; numpy has none.  Boldo and Melquiond's emulation: a·b = p + e and
    c + p = s + t exactly (Dekker's TwoProduct, Knuth's TwoSum), then
    s + (t + e rounded to odd) rounded to nearest.  Exact while no split
    overflows and e does not underflow (see `_EXACT_RANGE`)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    s, t = _two_sum(c, p)
    return s + _odd_sum(t, e)


def _split(a):
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _odd_sum(a, b):
    """a + b rounded to odd: the nearest double, moved one ulp toward the
    exact sum where it is inexact and the nearest has an even last bit."""
    s, err = _two_sum(a, b)
    even = (s.view(np.int64) & 1) == 0
    return np.where((err != 0.0) & even, np.nextafter(s, np.copysign(np.inf, err)), s)


def check_subordination(X: DyadicMartingale, Y: DyadicMartingale):
    """None if |dY_k| <= |dX_k| at every node of every level (up to
    rotation-level float slack), the roots counting as level 0; else the
    first violating (level, node index) in that order.
    """
    if X.depth != Y.depth:
        raise InvalidInputError("martingales must share the filtration depth")
    steps = chain([(X.levels[0], Y.levels[0])],
                  zip(pair_increments(X.levels), pair_increments(Y.levels)))
    for k, (dx, dy) in enumerate(steps):
        lev_ok = row_norm(dy) <= row_norm(dx) * (1.0 + SUBORDINATION_RTOL) + 1e-15
        if not lev_ok.all():
            # the flat index of a (2^(k-1), 2) pair array is the node index
            return k, int(np.argmin(lev_ok))
    return None


def weighted_norm(X: DyadicMartingale, w: WeightTree) -> float:
    """||X||_{2,w} evaluated at the terminal time: sqrt(mean |X_inf|^2 w_inf).

    On a finite tree sup_t ||X_t||_{2,w} is attained at t = n by conditional
    Jensen, so the terminal value is the norm.
    """
    if X.depth != w.depth:
        raise InvalidInputError("martingale and weight depths differ")
    return terminal_norm(X.leaves, w.leaf_values)


def terminal_norm(leaves, weights) -> float:
    """sqrt(mean |leaf|^2 weight) over (2^n, d) leaves and 2^n leaf weights."""
    return float(np.sqrt(np.mean(row_sum(leaves * leaves) * weights)))


def bilinear_form(Y: DyadicMartingale, Z: DyadicMartingale) -> float:
    """E sum_k |<dY_k, dZ_k>| including the time-0 term |<Y_0, Z_0>|.

    The discrete total variation of the covariation bracket [Y, Z].
    """
    if Y.depth != Z.depth or Y.dim != Z.dim:
        raise InvalidInputError("bilinear form needs matching depth and dimension")
    total = abs(float(Y.initial @ Z.initial))
    for dy, dz in zip(pair_increments(Y.levels), pair_increments(Z.levels)):
        total += float(np.mean(np.abs(row_sum(dy * dz))))
    return total
