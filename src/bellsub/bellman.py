"""The explicit four-variable Bellman function for weighted differential subordination.

The function lives on the non-convex domain 1 <= r*s <= Q and is assembled
from seven building blocks:

    B1 = <x,x>/r + <y,y>/s
    B2 = <x,x>/(2r - 1/(s(N+1))) + <y,y>/s        N = sqrt(rs/Q)(1 - (rs)^2/(128 Q^2))
    B3 = <x,x>/r + <y,y>/(2s - 1/(r(N+1)))
    B4 = H4(x, y, r, s, K(r,s))                   K = sqrt(rs/Q)(1 - sqrt(rs)/(8 sqrt(Q)))
    B5 = <x,x>/(2r - 1/(s(K+1))) + <y,y>/s
    B6 = <x,x>/r + <y,y>/(2s - 1/(r(K+1)))
    B  = c1 B1 + c2 B2 + c3 B3 + c7 (B4 + B5 + B6)

with the constants c1, c2, c3, c7 of `coefficients.DEFAULT_COEFFICIENTS`, whose
reduced inequality `validate_coefficients` decides exactly.

H4 is the supremum over lam > 0 of <x,x>/(r + lam K) + <y,y>/(s + K/lam); it is
piecewise C^2 with three branches separated by the cuts |y|r - |x|K = 0 and
|x|s - |y|K = 0.  Everything depends on x, y only through a = |x|, b = |y|,
and every block is a^2 alpha(r,s) + b^2 beta(r,s) - 2ab gamma(r,s); values,
gradients and Hessian quadratic forms are assembled in closed form from those
coefficient functions and their (r, s) partials (see `_coefficients`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import DEFAULT_COEFFICIENTS
from .errors import ConfigError, DomainError, InvalidInputError
from .weights import row_norm, row_sum

# Relative slack of every face of D_Q^{eps,ell} in `domain_masks`: float
# products and averages of admissible (r, s) land ulps outside the exact faces.
_RS_SLACK = 1e-12

CUT_TOLERANCE = 1e-8
# roundoff floor that a reported margin must clear (certify, estimates)
MARGIN_TOL = 1e-8

# B's weights on B1 .. B6: (c1, c2, c3, c7, c7, c7)
BLOCK_WEIGHTS = DEFAULT_COEFFICIENTS + DEFAULT_COEFFICIENTS[3:] * 2


@dataclass(frozen=True)
class BellmanConfig:
    """The domain D_Q^{eps,ell} in dimension dim on which B is evaluated."""

    Q: float = 16.0
    eps: float = 0.1
    ell: float = 0.05
    dim: int = 2

    def __post_init__(self):
        if not np.isfinite([self.Q, self.eps, self.ell]).all():
            raise InvalidInputError("non-finite configuration values")
        if self.Q < 1.0:
            raise ConfigError(f"Q must be >= 1, got {self.Q}")
        if not 0.0 < self.eps < 1.0:
            raise ConfigError(f"eps must lie in (0, 1), got {self.eps}")
        if not 0.0 < self.ell <= self.eps / 2.0:
            raise ConfigError(f"ell must lie in (0, eps/2], got {self.ell}")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")

    @property
    def size_constant(self):
        """C with B <= C (|x|^2/r + |y|^2/s): each block is bounded by B1."""
        return sum(BLOCK_WEIGHTS)

    @property
    def dxx_constant(self):
        """C with (d2_x B dx, dx) <= C eps^-1 |dx|^2 (same constant for d2_y).

        B1, B2, B3, B5, B6 contribute at most 2/r each to the second x
        derivative; H4's interior branch contributes 2s/(rs - K^2), and
        K <= (1 - 1/(8 sqrt(Q))) sqrt(rs/Q) keeps that below (2/r) qfac with
        qfac finite for every Q >= 1.
        """
        qfac = 1.0 / (1.0 - (1.0 - 1.0 / (8.0 * np.sqrt(self.Q))) ** 2 / self.Q)
        return 2.0 * sum(BLOCK_WEIGHTS[:3]) + 2.0 * BLOCK_WEIGHTS[3] * (qfac + 2.0)


@dataclass(frozen=True)
class StatePoint:
    """The quadruplet V = (x, y, r, s); x, y vectors, r, s positive scalars.
    |x| and |y| are `row_norm`s, as on the rows of a batch."""

    x: np.ndarray
    y: np.ndarray
    r: float
    s: float

    def __post_init__(self):
        _set_shapes(self, ("x", "y"), ("r", "s"))
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()
                and np.isfinite(self.r) and np.isfinite(self.s)):
            raise InvalidInputError("non-finite state point")
        if self.r <= 0.0 or self.s <= 0.0:
            raise DomainError(f"r, s must be positive, got r={self.r}, s={self.s}")

    @property
    def xnorm(self):
        return float(row_norm(self.x))

    @property
    def ynorm(self):
        return float(row_norm(self.y))


@dataclass(frozen=True)
class Perturbation:
    """A direction dV = (dx, dy, dr, ds) for quadratic-form evaluation."""

    dx: np.ndarray
    dy: np.ndarray
    dr: float
    ds: float

    def __post_init__(self):
        _set_shapes(self, ("dx", "dy"), ("dr", "ds"))
        if not (np.isfinite(self.dx).all() and np.isfinite(self.dy).all()
                and np.isfinite(self.dr) and np.isfinite(self.ds)):
            raise InvalidInputError("non-finite perturbation")


def _set_shapes(obj, vectors, scalars):
    """Store the vector fields of a frozen point or direction as non-empty
    1-D float arrays (a scalar is one coordinate); refuse any other shape,
    and a scalar field that is not a scalar."""
    for name in vectors:
        v = np.atleast_1d(np.asarray(getattr(obj, name), dtype=float))
        if v.ndim != 1 or v.size == 0:
            raise InvalidInputError(f"{name} must be a non-empty 1-D vector, "
                                    f"got shape {v.shape}")
        object.__setattr__(obj, name, v)
    for name in scalars:
        if np.ndim(getattr(obj, name)) != 0:
            raise InvalidInputError(f"{name} must be a scalar, got shape "
                                    f"{np.shape(getattr(obj, name))}")


@dataclass
class EvalResult:
    value: float
    gradient: np.ndarray                       # (2*dim + 2,): d/dx, d/dy, d/dr, d/ds
    hessian_form: Callable[[Perturbation], float]
    region: str     # H4's branch: R1 interior, R2/R3 boundary branches, CUT near a cut


# ---------------------------------------------------------------------------
# one formula source: B = a^2 alpha(r,s) + b^2 beta(r,s) - 2ab gamma(r,s)
# ---------------------------------------------------------------------------
#
# With a = |x|, b = |y| and t = rs, every coefficient of every block is c/r,
# c/s, s F(t), r F(t) or F(t); for instance 1/(2r - 1/(s(N+1))) equals
# s/(2t - 1/(N+1)).  So any weighted sum of the blocks has
#
#     alpha = Ca/r + s A(t),    beta = Cb/s + r B(t),    gamma = G(t)
#
# with Ca, Cb constant on each H4 branch.  A function of t travels as (F,)
# for the value alone, as (F, F') for first partials or as (F, F', F''), and
# the (a, b, r, s) partials follow from the chain rule through t = rs.
# `_fill` assembles the value and those partials, and nothing else does.

def kn_of_t(t, Q, order=0):
    """K(t) = sqrt(t/Q)(1 - sqrt(t)/(8 sqrt(Q))) and
    N(t) = sqrt(t/Q)(1 - t^2/(128 Q^2)), each with its t-derivatives up to
    `order` (0, 1 or 2).  On 1 <= t <= Q, 0 <= K, N < sqrt(t/Q) <= 1."""
    st = np.sqrt(t)
    iq = 1.0 / np.sqrt(Q)
    rq = st * iq
    k = rq * (1.0 - st * (iq / 8.0))
    n = rq * (1.0 - t * t * (iq ** 4 / 128.0))
    if order == 0:
        return (k,), (n,)
    half = (0.5 * iq) / st
    k, n = (k, half - iq * iq / 8.0), (n, half - rq * t * (5.0 * iq ** 4 / 256.0))
    if order == 1:
        return k, n
    quarter = half / (2.0 * t)
    return k + (-quarter,), n + (-quarter - rq * (15.0 * iq ** 4 / 512.0),)


def _recip_t(f):
    """1/F for a function F of t, to the order F carries."""
    inv = 1.0 / f[0]
    if len(f) == 1:
        return (inv,)
    i2 = inv * inv
    first = (inv, -f[1] * i2)
    if len(f) == 2:
        return first
    return first + ((2.0 * f[1] * f[1] * inv - f[2]) * i2,)


def _lincomb(terms):
    """sum of c F over (c, F) pairs, slot by slot."""
    return tuple(sum(c * f[i] for c, f in terms) for i in range(len(terms[0][1])))


def _leg_t(t, m):
    """1/(2t - 1/(M+1)): B2, B3 shrink a leg with it for M = N, B5, B6 for M = K."""
    p = _recip_t((m[0] + 1.0,) + m[1:])
    return _recip_t((2.0 * t - p[0],) + tuple(2.0 - f for f in p[1:2])
                    + tuple(-f for f in p[2:]))


def _h4_t(t, k):
    """1/(t - K^2) and K/(t - K^2), the interior branch of H4."""
    e = (t - k[0] * k[0],)
    if len(k) > 1:
        e += (1.0 - 2.0 * k[0] * k[1],)
    if len(k) > 2:
        e += (-2.0 * (k[1] * k[1] + k[0] * k[2]),)
    h = _recip_t(e)
    kh = (k[0] * h[0],)
    if len(k) > 1:
        kh += (k[1] * h[0] + k[0] * h[1],)
    if len(k) > 2:
        kh += (k[2] * h[0] + 2.0 * k[1] * h[1] + k[0] * h[2],)
    return h, kh


def _branches(a, b, r, s, k):
    """H4 sign quantities q1 = br - aK, q2 = as - bK and the R1, R2, R3 masks."""
    q1 = b * r - a * k
    q2 = a * s - b * k
    in_r1 = np.logical_and(q1 > 0.0, q2 > 0.0)   # a numpy bool for scalar input too
    in_r2 = ~in_r1 & (q2 <= 0.0)
    return q1, q2, (in_r1, in_r2, ~(in_r1 | in_r2))


def _near_cut(q1, q2, a, b):
    """The one cut rule: a point whose sign quantities q1, q2 lie within
    CUT_TOLERANCE * max(a, b, 1) of 0 is a cut point, which C^2 checks skip."""
    return np.minimum(np.abs(q1), np.abs(q2)) < CUT_TOLERANCE * np.maximum(np.maximum(a, b), 1.0)


def _coefficients(t, k, n, masks, weights):
    """(Ca, Cb, A, B, G) of sum_i weights[i] B_i over the six blocks.

    B1 = a^2/r + b^2/s; B2, B3 shrink the a, b leg with N and B5, B6 with K;
    B4 = H4 is (a^2 s - 2abK + b^2 r)/(t - K^2) in R1, b^2/s in R2, a^2/r in R3.
    """
    w1, w2, w3, w4, w5, w6 = weights
    in_r1, in_r2, in_r3 = masks
    w = w4 * in_r1
    h, kh = _h4_t(t, k)
    a_terms, b_terms = [(w, h)], [(w, h)]
    for wa, wb, m in ((w2, w3, n), (w5, w6, k)):
        if wa or wb:
            leg = _leg_t(t, m)
            a_terms.append((wa, leg))
            b_terms.append((wb, leg))
    A = _lincomb(a_terms)
    B = A if (w2, w5) == (w3, w6) else _lincomb(b_terms)
    return (w1 + w3 + w6 + w4 * in_r3, w1 + w2 + w5 + w4 * in_r2, A, B,
            tuple(w * f for f in kh))


def _unit_weights(i):
    return tuple(float(j == i) for j in range(1, 7))


# ---------------------------------------------------------------------------
# the domain, and H4 at a given K
# ---------------------------------------------------------------------------

def domain_masks(a, b, r, s, cfg: BellmanConfig):
    """The only membership rule: the nested masks of D_Q (r, s > 0, 1 <= rs
    <= Q), D_Q^eps (eps <= r, s <= 1/eps) and D_Q^{eps,ell} (a, b >= ell) on
    arrays or scalars, every face widened by the relative slack `_RS_SLACK`."""
    lo, hi = 1.0 - _RS_SLACK, 1.0 + _RS_SLACK
    t = r * s
    in_dq = (r > 0.0) & (t >= lo) & (t <= cfg.Q * hi)
    e_lo, e_hi = cfg.eps * lo, hi / cfg.eps
    in_eps = in_dq & (r >= e_lo) & (r <= e_hi) & (s >= e_lo) & (s <= e_hi)
    return in_dq, in_eps, in_eps & (a >= cfg.ell * lo) & (b >= cfg.ell * lo)


def h4_value(a, b, r, s, K):
    """H4 at radii a = |x|, b = |y| for a given K, vectorized.

    sup over lam > 0 of a^2/(r + lam K) + b^2/(s + K/lam): the R1 branch
    (a^2 s - 2abK + b^2 r)/(rs - K^2), b^2/s in R2, a^2/r in R3; the branches
    agree in the limit at the cuts.
    """
    return _fill(a, b, r, s, (K,), None, _unit_weights(4))


# ---------------------------------------------------------------------------
# batch evaluation on the radial profile
# ---------------------------------------------------------------------------

@dataclass
class BatchEval:
    """Value and radial partials of B on a batch of points.

    g has shape (4, n) ordered (a, b, r, s); h has shape (4, 4, n), or is
    None for a batch evaluated at order 1.  region is 1/2/3 per point, cut
    marks points within cut tolerance of an H4 branch boundary (their h
    entries are the one-sided branch values).
    """

    a: np.ndarray
    b: np.ndarray
    value: np.ndarray
    g: np.ndarray
    h: np.ndarray | None
    region: np.ndarray
    cut: np.ndarray


# points per pass of `profile_value` and `_batch`: keeps their temporaries
# cache-resident
_CHUNK = 8192


def profile_value(a, b, r, s, cfg):
    """Value of B on arrays of (|x|, |y|, r, s), without partials, chunk by
    chunk into one output."""
    a, b, r, s = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, r, s)))
    value = np.empty(a.shape)
    for lo in range(0, len(a), _CHUNK):
        part = slice(lo, lo + _CHUNK)
        k, n = kn_of_t(r[part] * s[part], cfg.Q)
        value[part] = _fill(a[part], b[part], r[part], s[part], k, n, BLOCK_WEIGHTS)
    return value


def _batch(a, b, r, s, Q, weights, order=2):
    """Value and gradient of a weighted block sum, with its Hessian at
    order 2, chunk by chunk."""
    if order not in (1, 2):
        raise ConfigError(f"order must be 1 or 2, got {order}")
    a, b, r, s = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, r, s)))
    shape = a.shape
    value, region, cut = np.empty(shape), np.empty(shape, dtype=int), np.empty(shape, dtype=bool)
    g = np.empty((4,) + shape)
    h = np.empty((4, 4) + shape) if order == 2 else None
    for lo in range(0, len(a), _CHUNK):
        part = slice(lo, lo + _CHUNK)
        k, n = kn_of_t(r[part] * s[part], Q, order)
        value[part], region[part], cut[part] = _fill(
            a[part], b[part], r[part], s[part], k, n, weights, g[:, part],
            None if h is None else h[:, :, part])
    return BatchEval(a=a, b=b, value=value, g=g, h=h, region=region, cut=cut)


def _fill(a, b, r, s, k, n, weights, g=None, h=None):
    """The weighted block sum from the t-jets k of K and n of N (`kn_of_t`;
    k may be any K, free of t, and n is unused when the weights leave out
    B2 and B3).  Without g, return the value alone.  With g, write
    the first partials into g and, unless it is None, the second into h;
    return value, region, cut.  The jets carry F' for g and F'' for h.

    With alpha = Ca/r + sA, beta = Cb/s + rB, gamma = G and the shorthands
    Ea = a s A' - b G', Eb = b r B' - a G', D1 = a Ea + b Eb and
    D2 = a^2 s A'' + b^2 r B'' - 2ab G'', the chain rule through t = rs gives

        phi_a  = 2(a alpha - b G)           phi_b  = 2(b beta - a G)
        phi_r  = b^2 B + s D1 - a^2 Ca/r^2  phi_s  = a^2 A + r D1 - b^2 Cb/s^2
        phi_ar = 2(s Ea - a Ca/r^2)         phi_as = 2(a A + r Ea)
        phi_br = 2(b B + s Eb)              phi_bs = 2(r Eb - b Cb/s^2)
        phi_rr = 2(a^2 Ca/r^3 + b^2 s B') + s^2 D2
        phi_ss = 2(b^2 Cb/s^3 + a^2 r A') + r^2 D2
        phi_rs = 2(D1 + ab G') + t D2

    and phi_aa = 2 alpha, phi_bb = 2 beta, phi_ab = -2G.
    """
    q1, q2, masks = _branches(a, b, r, s, k[0])
    cut = None if g is None else _near_cut(q1, q2, a, b)
    # the value alone keeps only what it reads: q1, q2 go before its peak in
    # `_coefficients`, and 1/r, 1/s stay unnamed until the partials need them
    del q1, q2
    ca, cb, As, Bs, Gs = _coefficients(r * s, k, n, masks, weights)
    alpha, beta, G = ca * (1.0 / r) + s * As[0], cb * (1.0 / s) + r * Bs[0], Gs[0]
    value = a * a * alpha + b * b * beta - 2.0 * a * b * G
    if g is None:
        return value
    A, A1, B, B1, G1 = As[0], As[1], Bs[0], Bs[1], Gs[1]
    aa, bb, ab = a * a, b * b, a * b
    ir, i_s = 1.0 / r, 1.0 / s
    ea = a * s * A1 - b * G1
    eb = b * r * B1 - a * G1
    d1 = a * ea + b * eb
    xr, ys = a * (ca * ir) * ir, b * (cb * i_s) * i_s
    g[0] = 2.0 * (a * alpha - b * G)
    g[1] = 2.0 * (b * beta - a * G)
    g[2] = bb * B + s * d1 - a * xr
    g[3] = aa * A + r * d1 - b * ys
    if h is not None:
        d2 = aa * s * As[2] + bb * r * Bs[2] - 2.0 * ab * Gs[2]
        h[0, 0] = 2.0 * alpha
        h[1, 1] = 2.0 * beta
        h[0, 1] = h[1, 0] = -2.0 * G
        h[0, 2] = h[2, 0] = 2.0 * (s * ea - xr)
        h[0, 3] = h[3, 0] = 2.0 * (a * A + r * ea)
        h[1, 2] = h[2, 1] = 2.0 * (b * B + s * eb)
        h[1, 3] = h[3, 1] = 2.0 * (r * eb - ys)
        h[2, 2] = 2.0 * (a * xr * ir + bb * s * B1) + s * s * d2
        h[3, 3] = 2.0 * (b * ys * i_s + aa * r * A1) + r * r * d2
        h[2, 3] = h[3, 2] = 2.0 * (d1 + ab * G1) + r * s * d2
    in_r1, in_r2, _ = masks
    return value, np.where(in_r1, 1, np.where(in_r2, 2, 3)), cut


def evaluate_batch(a, b, r, s, cfg: BellmanConfig, order=2) -> BatchEval:
    """B with its radial partials on arrays of (|x|, |y|, r, s): first and
    second at order 2, first only at order 1 (`h` is None; value, g, region
    and cut are the order-2 ones bit for bit)."""
    return _batch(a, b, r, s, cfg.Q, BLOCK_WEIGHTS, order)


def b4_batch(a, b, r, s, cfg: BellmanConfig, order=2) -> BatchEval:
    """H4 composed with K(r,s) (the B4 block alone), with radial partials
    to `order` as in `evaluate_batch`."""
    return _batch(a, b, r, s, cfg.Q, _unit_weights(4), order)


def _tangential_coeff(g, h_diag, radius):
    """phi_a / a with its a -> 0 limit: the profile is an even function of the
    radius there, so the tangential curvature tends to the radial one."""
    return np.where(radius > 0.0, g / np.where(radius > 0.0, radius, 1.0), h_diag)


def hessian_quadratic_form(batch: BatchEval, xhat, yhat, dx, dy, dr, ds):
    """(d^2 B dV, dV) for per-point batches of directions.

    Shapes: xhat, yhat (n, d); dx, dy (n, m, d); dr, ds (n, m); result (n, m).
    The radial/tangential split is exact for profiles of |x|, |y|:
    d^2 = phi_aa p^2 + (phi_a/a) |dx_perp|^2 + ... with p = <xhat, dx>.
    """
    p = np.einsum("nd,nmd->nm", xhat, dx)
    q = np.einsum("nd,nmd->nm", yhat, dy)
    pperp2 = np.maximum(row_sum(dx * dx) - p * p, 0.0)
    qperp2 = np.maximum(row_sum(dy * dy) - q * q, 0.0)
    h = batch.h[..., None]       # (4, 4, n, 1) against (n, m)
    form = (h[0, 0] * p * p + h[1, 1] * q * q + h[2, 2] * dr * dr + h[3, 3] * ds * ds
            + 2.0 * (h[0, 1] * p * q + h[0, 2] * p * dr + h[0, 3] * p * ds
                     + h[1, 2] * q * dr + h[1, 3] * q * ds + h[2, 3] * dr * ds))
    tx = _tangential_coeff(batch.g[0], batch.h[0, 0], batch.a)[:, None]
    ty = _tangential_coeff(batch.g[1], batch.h[1, 1], batch.b)[:, None]
    return form + tx * pperp2 + ty * qperp2


def partial_xx_form(batch: BatchEval, xhat, dx):
    """(d^2_x B dx, dx) alone; xhat (n, d), dx (n, m, d) -> (n, m)."""
    still = np.zeros(dx.shape[:2])
    return hessian_quadratic_form(batch, xhat, xhat, dx, np.zeros_like(dx), still, still)


def partial_yy_form(batch: BatchEval, yhat, dy):
    """(d^2_y B dy, dy) alone; yhat (n, d), dy (n, m, d) -> (n, m)."""
    still = np.zeros(dy.shape[:2])
    return hessian_quadratic_form(batch, yhat, yhat, np.zeros_like(dy), dy, still, still)


# ---------------------------------------------------------------------------
# full evaluation of a single state point
# ---------------------------------------------------------------------------

def evaluate_point(V: StatePoint, cfg: BellmanConfig):
    """`evaluate_batch` at the single point V, with the unit directions
    xhat, yhat of x, y as (1, d) rows (zero rows where x or y is 0).  A V
    outside D_Q^eps (`domain_masks`) is a DomainError."""
    a, b = V.xnorm, V.ynorm
    if not domain_masks(a, b, V.r, V.s, cfg)[1]:
        raise DomainError(f"V (r={V.r}, s={V.s}) not in D_Q^eps for Q={cfg.Q}, eps={cfg.eps}")
    batch = evaluate_batch(np.array([a]), np.array([b]),
                           np.array([V.r]), np.array([V.s]), cfg)
    xhat = (V.x / a if a > 0.0 else np.zeros_like(V.x))[None, :]
    yhat = (V.y / b if b > 0.0 else np.zeros_like(V.y))[None, :]
    return batch, xhat, yhat


def eval_B(V: StatePoint, cfg: BellmanConfig) -> EvalResult:
    """Value, gradient and Hessian quadratic form of B at V.

    All three are assembled analytically from the radial profile; nothing is
    differenced.  A point within the cut tolerance of an H4 cut has region
    CUT, and its form is the one of the branch the masks assign to it: on a
    cut that is the non-R1 side, the smaller of the two.
    """
    batch, xhat, yhat = evaluate_point(V, cfg)
    region = "CUT" if batch.cut[0] else f"R{int(batch.region[0])}"
    g = batch.g[:, 0]

    def hessian_form(dV: Perturbation) -> float:
        if dV.dx.shape != V.x.shape or dV.dy.shape != V.y.shape:
            raise InvalidInputError(f"dx {dV.dx.shape} and dy {dV.dy.shape} do not match "
                                    f"x {V.x.shape} and y {V.y.shape}")
        return float(hessian_quadratic_form(
            batch, xhat, yhat, dV.dx[None, None, :], dV.dy[None, None, :],
            np.array([[dV.dr]]), np.array([[dV.ds]]))[0, 0])

    return EvalResult(value=float(batch.value[0]),
                      gradient=np.concatenate([g[0] * xhat[0], g[1] * yhat[0], g[2:]]),
                      hessian_form=hessian_form, region=region)


def one_leg_margin(g, value0, xhat, yhat, value1, dx, dy, dr, ds, Q, constant=2.0,
                   lead=None):
    """B(V) - B(V0) - dB(V0)(V - V0) - (constant/Q)|dx||dy| per pair of points,
    returned with the linear term dB(V0)(V - V0) and |dx||dy|.

    g (4, ...) holds the radial partials of B at V0, xhat and yhat (..., d)
    the unit directions of x0 and y0, value0 and value1 the values B(V0),
    B(V); dx, dy (..., d) and dr, ds (...) make up V - V0.  The shapes
    broadcast, so one V0 can serve several V.  A scalar `lead` is passed on
    to `row_sum`/`row_norm` as an unstored first entry of dx, dy and of
    xhat dx, yhat dy: the telescope's anchor, whose increment is 0.
    """
    lin = (g[0] * row_sum(xhat * dx, lead) + g[1] * row_sum(yhat * dy, lead)
           + g[2] * dr + g[3] * ds)
    jump = row_norm(dx, lead) * row_norm(dy, lead)
    return value1 - value0 - lin - (constant / Q) * jump, lin, jump
