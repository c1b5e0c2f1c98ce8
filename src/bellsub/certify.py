"""Numerical certification of the Bellman function's properties.

Every claim the construction rests on is turned into a margin that must stay
above a small negative roundoff tolerance at seeded random sample points:

  * size:          B <= C_size (|x|^2/r + |y|^2/s)
  * Hessian:       (d^2 B dV, dV) >= (2/Q) |dx||dy| away from the H4 cuts
  * one-leg:       B(V) - B(V0) - dB(V0)(V - V0) >= (2/Q)|x-x0||y-y0|
  * second x/y:    (d^2_x B dx, dx) <= C_xx eps^-1 |dx|^2 (and symmetric in y)
  * ellipse:       some tau with Q d^2B >= tau |dx|^2 + tau^-1 |dy|^2 exists
                   inside the reporting band [eps/(10Q), 10Q/eps]
  * C^1 cuts:      one-sided gradients of the H4 block merge at rate O(delta),
                   on a fixed grid of points on each cut

At each point the Hessian, second x/y and ellipse margins hold over every
direction dV: they come from the 4x4 radial Hessian in (|x|, |y|, r, s) and
the two tangential curvatures, with tau chosen in closed form (see "the
per-point ellipse certificate" below), not from sampled directions.  The
one-leg margin is a minimum over random pairs of points.  B's coefficients are
constants, whose inequality `coefficients` decides exactly; no run repeats it.

Samples that `evaluate_batch` marks as cut points (within
bellman.CUT_TOLERANCE of an H4 branch cut) are excluded from the C^2 checks
(they are handled by the dedicated C^1 convergence check) and counted as
skipped.  All randomness flows through numpy SeedSequence spawns keyed by the
index of the BATCH-sample batch, so reports are byte-identical for a given
(cfg, spec) no matter how many worker threads evaluate them.  The plan (spec)
fixes only the sample count and the seed; the domain sampled is cfg's.
`_records` draws each batch and joins up to SLICE consecutive batches into a
slice; `_check`, which draws nothing, turns a slice's points into a
per-sample record, and the threads share the slices.  tau_sweep draws no
one-leg partners.
"""

from __future__ import annotations

import io
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# unused here: perfbench/tracing.py wraps the three *_form functions and
# validate_coefficients as attributes of this module
from .bellman import (MARGIN_TOL, SIZE_CONSTANT, BellmanConfig, _tangential_coeff, b4_batch,
                      domain_masks, dxx_constant, evaluate_batch, hessian_quadratic_form, kn_of_t,
                      one_leg_margin, partial_xx_form, partial_yy_form, profile_value)
from .coefficients import DEFAULT_COEFFICIENTS, validate_coefficients
from .errors import ConfigError
from .weights import row_norm, row_sum

TAU_FEAS_TOL = 1e-6
KAPPA_LO = 0.1
KAPPA_HI = 10.0
# BATCH samples share a pair of seeds, SLICE batches one `_check` call: at
# one batch per call the per-call overhead of its ~4700 numpy calls, spent
# holding the GIL, sets the time and idles a second thread (8 measured best
# against 4 and 16)
BATCH = 2048
SLICE = 8

# each check: its name, the roundoff floor its least margin must clear, and
# whether it skips the cut points (the C^2 checks do)
CHECKS = (("hessian_lower", MARGIN_TOL, True), ("one_leg", MARGIN_TOL, False),
          ("size_bound", 0.0, False), ("dxx_bound", MARGIN_TOL, True),
          ("dyy_bound", MARGIN_TOL, True))


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic sampling plan for certification runs: how many points,
    from which seed.  The domain sampled (Q, eps, ell, dim) is always the
    BellmanConfig's, and the C^2 checks skip the cut points `evaluate_batch`
    marks."""

    count: int
    seed: int

    def __post_init__(self):
        if self.count < 0:
            raise ConfigError("sample count must be nonnegative")


@dataclass
class CheckRecord:
    name: str
    samples: int
    skipped: int
    min_margin: float
    worst_point: str
    passed: bool


@dataclass
class TauStats:
    min: float
    max: float
    band_lo: float
    band_hi: float
    within_bounds: bool
    min_feasibility: float

    @property
    def passed(self):
        return self.within_bounds and self.min_feasibility >= -TAU_FEAS_TOL


@dataclass
class CertReport:
    cfg: BellmanConfig
    spec: SampleSpec
    checks: list
    tau_stats: TauStats | None
    runtime: float
    note: str

    @property
    def overall_pass(self):
        return (all(c.passed for c in self.checks)
                and (self.tau_stats is None or self.tau_stats.passed))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _sample_arrays(cfg: BellmanConfig, seed, count):
    """Points of D_Q^{eps, ell}, drawn from `np.random.default_rng(seed)`:
    log(rs) uniform on [0, log t_max], log r uniform on the feasible slice,
    sphere directions with log-uniform radii."""
    rng = np.random.default_rng(seed)
    t = np.exp(rng.uniform(0.0, np.log(_t_max(cfg)), count))
    r = np.exp(_slice_log_r(t, cfg.eps, rng.random(count)))
    s = t / r
    radius_x = np.exp(rng.uniform(np.log(cfg.ell), np.log(1.0 / cfg.eps), count))
    radius_y = np.exp(rng.uniform(np.log(cfg.ell), np.log(1.0 / cfg.eps), count))
    x = _sphere(rng, count, cfg.dim) * radius_x[:, None]
    y = _sphere(rng, count, cfg.dim) * radius_y[:, None]
    return x, y, r, s


def _t_max(cfg):
    """min(Q, eps^-2), the cap on rs; an eps^-2 past the float range is inf."""
    with np.errstate(over="ignore"):
        return min(cfg.Q, np.float64(cfg.eps) ** -2)


def _slice_log_r(t, eps, u):
    """log r at relative position u in [0, 1] of the slice of the eps box on
    which rs = t: [log max(eps, t eps), log min(1/eps, t/eps)]."""
    lo = np.log(np.maximum(eps, t * eps))
    hi = np.log(np.minimum(1.0 / eps, t / eps))
    return lo + u * (hi - lo)


def _sphere(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / row_norm(v)[:, None]


def _batches(spec: SampleSpec):
    """(size, point seed, pair seed) of each sample batch, in sample order;
    seeds are spawned by batch index, whatever the number of workers.  An
    empty plan is one empty batch."""
    n = max(1, -(-spec.count // BATCH))
    points, pairs = np.random.SeedSequence(spec.seed).spawn(2)
    return [(min(BATCH, spec.count - b * BATCH), pt, pr)
            for b, (pt, pr) in enumerate(zip(points.spawn(n), pairs.spawn(n)))]


# ---------------------------------------------------------------------------
# the per-point ellipse certificate
# ---------------------------------------------------------------------------
#
# The Hessian form is [p, q, dr, ds] h [..]^T + tx |dx_perp|^2 + ty |dy_perp|^2
# with p = <xhat, dx>, q = <yhat, dy>, h the radial Hessian in (a, b, r, s)
# and tx = phi_a/a, ty = phi_b/b.  As 2|dx||dy| <= tau|dx|^2 + |dy|^2/tau, for
# every u = tau/Q > 0 the Hessian margin over unit dV is at least
#   min(lambda_min(h - diag(u, 1/(Q^2 u), 0, 0)), tx - u, ty - 1/(Q^2 u)),
# which, times Q, is exactly min Q (d^2B dV, dV) - tau|dx|^2 - tau^-1|dy|^2.

def _radial(batch, dim):
    """(n, 4, 4) radial Hessians and the curvatures (tx, ty) across xhat and
    yhat.  In dim 1, where no such direction exists, the axes stand in with
    curvatures h_aa, h_bb: no bound moves, since lambda_min(h - D) <= h_aa - u."""
    h = np.moveaxis(batch.h, -1, 0)
    if dim == 1:
        return h, (h[:, 0, 0], h[:, 1, 1])
    return h, (_tangential_coeff(batch.g[0], batch.h[0, 0], batch.a),
               _tangential_coeff(batch.g[1], batch.h[1, 1], batch.b))


def _axis_curvatures(h, tan):
    """Largest Rayleigh quotients of d^2_x B and d^2_y B, per point."""
    return np.maximum(h[:, 0, 0], tan[0]), np.maximum(h[:, 1, 1], tan[1])


def _ellipse_level(h, tan, u, Q):
    """The bound above at u = tau/Q, per point (one batched eigvalsh)."""
    w = 1.0 / (Q * Q * u)
    shifted = h.copy()
    shifted[:, 0, 0] -= u
    shifted[:, 1, 1] -= w
    low = np.linalg.eigvalsh(shifted)[:, 0]
    return np.minimum(low, np.minimum(tan[0] - u, tan[1] - w))


def _best_shift(h, tan, Q):
    """u = tau/Q for a near-best bound, by bisection on the level lam.

    lam is reachable iff, for some u > 0, h - lam I - diag(u, 1/(Q^2 u), 0, 0)
    >= 0, tx - u >= lam and ty - 1/(Q^2 u) >= lam: with h_rs - lam I > 0 and M
    its Schur complement, iff some u in [1/(Q^2 V), U], U = min(m11, tx - lam),
    V = min(m22, ty - lam), has (m11 - u)(m22 - 1/(Q^2 u)) >= m12^2.  The left
    side is concave in u and peaks at sqrt(m11/m22)/Q, so its clipped peak
    decides.  Gershgorin less 1/Q is reachable (at u = 1/Q); no lam > min diag h is.

    The steps run in place on contiguous copies of the entries they read,
    with the three cross terms of the Schur complement hoisted.  Every
    operation keeps its operands and their grouping, and the clip is
    np.clip's max-then-min, so u is the same bits as with fresh arrays at
    each step.
    """
    diag = np.diagonal(h, axis1=1, axis2=2)
    lo = np.minimum(np.min(2.0 * diag - row_sum(np.abs(h)), axis=1),
                    np.minimum(*tan)) - 1.0 / Q
    hi = np.min(diag, axis=1)
    u = np.full(len(h), 1.0 / Q)
    h00, h11, h01, h22, h33, p0, p1, q0, q1, c12 = (
        np.ascontiguousarray(h[:, i, j]) for i, j in
        ((0, 0), (1, 1), (0, 1), (2, 2), (3, 3), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    tx, ty = np.ascontiguousarray(tan[0]), np.ascontiguousarray(tan[1])
    c12sq = c12 * c12
    pp, qq, pq = p0 * p1 + p1 * p0, q0 * q1 + q1 * q0, p0 * q1 + p1 * q0
    QQ = Q * Q
    lam, c11, c22, det, m11, m22, m12, top, side, floor, cand, t, t2 = np.empty((13, len(h)))
    ok, test = np.empty((2, len(h)), dtype=bool)
    mask, bits = np.empty((2, len(h)), dtype=np.int64)

    def inv_form(x0, x1, y0, y1, cross, out):
        # (c22 x0 y0 - c12 cross + c11 x1 y1) / det
        np.multiply(c22, x0, out=out)
        out *= y0
        out -= np.multiply(c12, cross, out=t)
        out += np.multiply(np.multiply(c11, x1, out=t), y1, out=t)
        out /= det

    with np.errstate(divide="ignore", invalid="ignore"):
        # 64 steps leave a valid u, not the optimum: at step 64 the bracket
        # still moves at a fifth to a half of the points
        for _ in range(64):
            np.add(lo, hi, out=lam)
            lam *= 0.5
            # M, the Schur complement of h_rs - lam I
            np.subtract(h22, lam, out=c11)
            np.subtract(h33, lam, out=c22)
            np.multiply(c11, c22, out=det)
            det -= c12sq
            inv_form(p0, p1, p0, p1, pp, t2)
            np.subtract(h00, lam, out=m11)
            m11 -= t2
            inv_form(q0, q1, q0, q1, qq, t2)
            np.subtract(h11, lam, out=m22)
            m22 -= t2
            inv_form(p0, p1, q0, q1, pq, t2)
            np.subtract(h01, t2, out=m12)
            # the peak sqrt(m11/m22)/Q clipped into [floor, top], and its test
            np.minimum(m11, np.subtract(tx, lam, out=t), out=top)
            np.minimum(m22, np.subtract(ty, lam, out=t), out=side)
            np.multiply(QQ, side, out=floor)
            np.divide(1.0, floor, out=floor)
            np.divide(m11, m22, out=cand)
            np.sqrt(cand, out=cand)
            cand /= Q
            np.maximum(cand, floor, out=cand)
            np.minimum(cand, top, out=cand)
            np.greater(c11, 0.0, out=ok)
            ok &= np.greater(det, 0.0, out=test)
            ok &= np.greater(top, 0.0, out=test)
            ok &= np.greater(side, 0.0, out=test)
            ok &= np.less_equal(floor, top, out=test)
            np.multiply(QQ, cand, out=t)
            np.divide(1.0, t, out=t)
            np.subtract(m22, t, out=t)
            t *= np.subtract(m11, cand, out=t2)
            ok &= np.greater_equal(t, np.multiply(m12, m12, out=t2), out=test)
            # lo and u move where ok, hi where not
            np.negative(ok, out=mask, dtype=np.int64)
            _blend(lo, lam, mask, bits)
            _blend(u, cand, mask, bits)
            np.invert(mask, out=mask)
            _blend(hi, lam, mask, bits)
    return u


def _blend(dst, src, mask, scratch):
    """dst = src where the int64 mask is all ones, kept where it is zero, as
    bit operations.  numpy's masked copies (where, putmask, copyto) branch on
    each mask entry, and a bisection's masks are coin flips."""
    d, s = dst.view(np.int64), src.view(np.int64)
    np.bitwise_xor(d, s, out=scratch)
    scratch &= mask
    d ^= scratch


def _tau_band(cfg):
    """The reporting band [KAPPA_LO eps/Q, KAPPA_HI Q/eps] of tau."""
    return KAPPA_LO * cfg.eps / cfg.Q, KAPPA_HI * cfg.Q / cfg.eps


def _ellipse(h, tan, cfg):
    """Per point: the Hessian lower bound at the best tau found, that tau
    clipped into the band `_tau_band`, and the exact feasibility
    min over unit dV of Q (d^2B dV, dV) - tau |dx|^2 - tau^-1 |dy|^2 there.

    Where tau/Q is u bit for bit, the level at tau/Q is the one at u, since
    eigvalsh of a batch is eigvalsh of each matrix: only the other rows (the
    band-clipped ones, and any NaN) are evaluated again."""
    Q = cfg.Q
    u = _best_shift(h, tan, Q)
    lower = _ellipse_level(h, tan, u, Q)
    tau = np.clip(Q * u, *_tau_band(cfg))
    feas = Q * lower
    moved = tau / Q != u
    if moved.any():
        feas[moved] = Q * _ellipse_level(h[moved], (tan[0][moved], tan[1][moved]),
                                         tau[moved] / Q, Q)
    return lower, tau, feas


def _witness(h, tan, xhat, yhat, tau, Q):
    """Unit directions dV, (n, 2d+2), attaining the least value of
    Q (d^2B dV, dV) - tau |dx|^2 - tau^-1 |dy|^2, and that value: the least
    eigenpair of the form's matrix on the whole space of dV."""
    n, d = xhat.shape
    lift = np.zeros((n, 4, 2 * d + 2))     # dV -> (p, q, dr, ds)
    lift[:, 0, :d], lift[:, 1, d:2 * d] = xhat, yhat
    lift[:, 2, 2 * d] = lift[:, 3, 2 * d + 1] = 1.0
    full = np.einsum("nia,nij,njb->nab", lift, h, lift)
    eye = np.eye(d)
    for k, (hat, curv, t) in enumerate(((xhat, tan[0], tau), (yhat, tan[1], 1.0 / tau))):
        block = slice(k * d, (k + 1) * d)     # tangential curvature, less t/Q |d.|^2
        full[:, block, block] += (curv[:, None, None] * (eye - hat[:, :, None] * hat[:, None, :])
                                  - (t / Q)[:, None, None] * eye)
    vals, vecs = np.linalg.eigh(full)
    return vecs[:, :, 0], Q * vals[:, 0]


def tau_sweep(cfg: BellmanConfig, spec: SampleSpec):
    """Per-sample ellipse constants over the sampling plan.

    Returns (rows, ok): rows of (index, r, s, |x|, |y|, tau) in sample order,
    skipping cut-adjacent points; ok is False when any point has no feasible
    in-band tau.
    """
    kept = _records(cfg, spec, 1, pairs=False)[1]
    a, b, r, s = kept["point"].T.tolist()
    rows = list(zip(kept["index"].tolist(), r, s, a, b, kept["tau"].tolist()))
    return rows, bool((kept["feas"] >= -TAU_FEAS_TOL).all())


# ---------------------------------------------------------------------------
# C^1 across the H4 cuts
# ---------------------------------------------------------------------------

# the C^1 check's grid size (about C1_POINTS points per cut) and displacements
C1_POINTS = 1000
C1_DELTAS = (1e-2, 1e-3, 1e-4)


def check_c1_across_cuts(cfg: BellmanConfig, seed=0):
    """One-sided gradients of the H4 block merge linearly at both cuts.

    For each cut and each delta of C1_DELTAS, about C1_POINTS points of a
    fixed grid (see `_c1_grid`) are placed on the cut and displaced to both
    sides by a relative delta; the report carries the mean gradient mismatch
    normalized by the local gradient scale, the fitted log-log decay rate
    (expected ~1), and the corner behavior |grad| = O(delta) when both |x|,
    |y| <~ delta.

    `seed` is ignored: the grid draws nothing.  It stays in the signature so
    that callers which still pass it keep working.
    """
    report = {"cuts": {}, "corner": {}, "rates": {}}
    for cut in ("xs_yk", "yr_xk"):
        mis = []
        for delta in C1_DELTAS:
            m, scale = _cut_mismatch(cfg, C1_POINTS, delta, cut)
            mis.append({"delta": delta, "mean_mismatch": m, "normalized": m / scale})
        report["cuts"][cut] = mis
        lg = np.log([row["delta"] for row in mis])
        lm = np.log([max(row["mean_mismatch"], 1e-300) for row in mis])
        report["rates"][cut] = float(np.polyfit(lg, lm, 1)[0])
    for delta in C1_DELTAS:
        report["corner"][delta] = _corner_gradient(cfg, C1_POINTS // 4, delta)
    report["pass"] = all(r >= 0.9 for r in report["rates"].values()) and all(
        row["normalized"] <= 1e-2 for row in report["cuts"]["xs_yk"][-1:]
        + report["cuts"]["yr_xk"][-1:])
    return report


def _c1_grid(cfg, n, *radii):
    """(r, s, K) and radii on a product grid of m = round(n^(1/3)) values per
    axis, ends included: log t on [0, log min(Q, eps^-2)], the position of
    log r in its slice (as in `_sample_arrays`), and log of each radius on
    its (lo, hi) range."""
    m = max(2, round(n ** (1.0 / 3.0)))
    axes = [np.linspace(0.0, np.log(_t_max(cfg)), m), np.linspace(0.0, 1.0, m)]
    axes += [np.linspace(np.log(lo), np.log(hi), m) for lo, hi in radii]
    logt, u, *logs = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
    t = np.exp(logt)
    r = np.exp(_slice_log_r(t, cfg.eps, u))
    k = kn_of_t(t, cfg.Q)[0][0]
    return r, t / r, k, [np.exp(v) for v in logs]


def _cut_mismatch(cfg, n, delta, cut):
    r, s, k, (rho,) = _c1_grid(cfg, n, (2 * cfg.ell, 0.5 / cfg.eps))
    if cut == "xs_yk":      # a s = b k, approach R1 (+) vs R2 (-)
        a = rho * k / s
        plus, minus = (a * (1 + delta), rho), (a * (1 - delta), rho)
    else:                    # b r = a k, approach R1 (+) vs R3 (-)
        b = rho * k / r
        plus, minus = (rho, b * (1 + delta)), (rho, b * (1 - delta))
    gp = b4_batch(*plus, r, s, cfg).g
    gm = b4_batch(*minus, r, s, cfg).g
    mismatch = row_norm((gp - gm).T)
    scale = np.maximum(row_norm(gp.T), row_norm(gm.T))
    scale = np.maximum(scale, 1e-12)
    return float(np.mean(mismatch)), float(np.mean(scale))


def _corner_gradient(cfg, n, delta):
    """Near the double cut both |x|, |y| <~ delta and grad H4 itself is O(delta)."""
    r, s, _, (a, b) = _c1_grid(cfg, n, (0.1 * delta, delta), (0.1 * delta, delta))
    g = b4_batch(a, b, r, s, cfg).g
    return float(np.max(row_norm(g.T)) / delta)


# ---------------------------------------------------------------------------
# the certification run
# ---------------------------------------------------------------------------

def run_certification(cfg: BellmanConfig, spec: SampleSpec, jobs=1) -> CertReport:
    """Execute every check over spec.count samples; deterministic per seed.

    Check failures land in the report, which is produced either way; only
    malformed inputs raise.
    """
    t0 = time.perf_counter()
    if spec.count == 0:
        return CertReport(cfg=cfg, spec=spec, checks=[], tau_stats=None,
                          runtime=time.perf_counter() - t0,
                          note="no samples: checks pass vacuously")

    merged, kept = _records(cfg, spec, jobs, pairs=True)
    checks = []
    for name, floor, skips_cut in CHECKS:
        rows = kept if skips_cut else merged
        margins = rows[name]
        i = int(np.argmin(margins)) if len(margins) else 0
        checks.append(CheckRecord(
            name=name, samples=len(margins), skipped=spec.count - len(margins),
            min_margin=float(margins[i]) if len(margins) else 0.0,
            worst_point=_fmt_point(rows["point"][i]) if len(margins) else "",
            passed=bool(len(margins) == 0 or margins[i] >= -floor)))

    taus, feas = kept["tau"], kept["feas"]
    band_lo, band_hi = _tau_band(cfg)
    # with every sample excluded near the cuts the tau band holds vacuously:
    # min and max of the empty set read inf and -inf
    tau_stats = TauStats(
        min=float(taus.min(initial=np.inf)), max=float(taus.max(initial=-np.inf)),
        band_lo=band_lo, band_hi=band_hi,
        within_bounds=bool((taus >= band_lo).all() and (taus <= band_hi).all()),
        min_feasibility=float(feas.min(initial=np.inf)))
    return CertReport(cfg=cfg, spec=spec, checks=checks, tau_stats=tau_stats,
                      runtime=time.perf_counter() - t0, note="")


def _records(cfg, spec, jobs, pairs):
    """The records of the plan's batches joined in sample order, and their
    rows away from the cuts (the rows of the C^2 checks and of tau).  Each
    batch draws its points, and their one-leg partners if `pairs`; each
    slice of up to SLICE consecutive batches is checked in one `_check`
    call, and `jobs` threads share the slices.  `_check` is row-wise, so the
    slicing moves no bit."""
    def draw(seeds, sizes):
        # each batch from its own seed, the batches joined
        arrays = [_sample_arrays(cfg, seed, size) for seed, size in zip(seeds, sizes)]
        return [np.concatenate(v) for v in zip(*arrays)]

    def work(part):
        sizes, pt_seeds, pair_seeds = zip(*part)
        return _check(cfg, draw(pt_seeds, sizes), draw(pair_seeds, sizes) if pairs else None)

    batches = _batches(spec)
    slices = [batches[i:i + SLICE] for i in range(0, len(batches), SLICE)]
    if jobs > 1 and len(slices) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            parts = list(ex.map(work, slices))
    else:
        parts = list(map(work, slices))
    merged = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
    merged["index"] = np.arange(spec.count)
    return merged, {k: v[~merged["cut"]] for k, v in merged.items()}


def _check(cfg, points, pairs):
    """The record of the points (x, y, r, s), row by row: the point (a, b, r, s),
    the cut flag, the Hessian and second x/y margins, tau and its feasibility;
    with one-leg partners pairs = (x2, y2, r2, s2), the one-leg and size margins."""
    x, y, r, s = points
    # a tiny ell lets drawn |x|, |y| underflow out of D_Q^{eps,ell}, tiny eps
    # and ell put h past the float range (eigvalsh fails), and a Q near it Q
    # times the Hessian bound: each is refused in one line, without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = row_norm(x), row_norm(y)
        drawn = [(a, b, r, s)]
        if pairs is not None:
            x2, y2, r2, s2 = pairs
            drawn.append((row_norm(x2), row_norm(y2), r2, s2))
        if not all(domain_masks(*p, cfg)[2].all() for p in drawn):
            raise ConfigError(f"eps {cfg.eps!r} and ell {cfg.ell!r} put sampled points "
                              "outside D_Q^{eps,ell} in float64")
        batch = evaluate_batch(a, b, r, s, cfg)
        h, tan = _radial(batch, cfg.dim)
    if not np.isfinite(h).all():
        raise ConfigError(f"eps {cfg.eps!r} and ell {cfg.ell!r} put the radial "
                          "Hessian beyond the float64 range")
    with np.errstate(over="ignore"):
        lower, tau, feas = _ellipse(h, tan, cfg)
    if np.isinf(feas).any():
        raise ConfigError(f"Q {cfg.Q!r} puts Q d^2B beyond the float64 range")
    cx, cy = _axis_curvatures(h, tan)
    cap = dxx_constant(cfg.Q) / cfg.eps
    record = {"point": np.stack([a, b, r, s], axis=1), "cut": batch.cut,
              "hessian_lower": lower, "dxx_bound": cap - cx, "dyy_bound": cap - cy,
              "tau": tau, "feas": feas}
    if pairs is not None:
        # one-leg from each point to its partner, gradient at the point
        val2 = profile_value(*drawn[1], cfg)
        record["one_leg"] = one_leg_margin(batch.g, batch.value, x / a[:, None], y / b[:, None],
                                           val2, x2 - x, y2 - y, r2 - r, s2 - s, cfg.Q)[0]
        record["size_bound"] = SIZE_CONSTANT * (a * a / r + b * b / s) - batch.value
    return record


def _fmt_point(p):
    return "a={!r} b={!r} r={!r} s={!r}".format(*map(float, p))


# ---------------------------------------------------------------------------
# report serialization (runtime deliberately excluded: byte-identical reruns)
# ---------------------------------------------------------------------------

def report_to_text(rep: CertReport) -> str:
    out = io.StringIO()
    out.write("certification-report\n")
    out.write(f"Q {rep.cfg.Q!r}\neps {rep.cfg.eps!r}\nell {rep.cfg.ell!r}\n")
    out.write(f"dim {rep.cfg.dim}\nsamples {rep.spec.count}\nseed {rep.spec.seed}\n")
    out.write("coefficients " + " ".join(map(repr, DEFAULT_COEFFICIENTS)) + "\n")
    if rep.note:
        out.write(f"note {rep.note}\n")
    for c in rep.checks:
        out.write(f"check {c.name}\n")
        out.write(f"  samples {c.samples}\n  skipped {c.skipped}\n")
        out.write(f"  min_margin {c.min_margin!r}\n  worst_point {c.worst_point}\n")
        out.write(f"  pass {str(c.passed).lower()}\n")
    if rep.tau_stats is not None:
        ts = rep.tau_stats
        out.write("tau_stats\n")
        out.write(f"  min {ts.min!r}\n  max {ts.max!r}\n")
        out.write(f"  band_lo {ts.band_lo!r}\n  band_hi {ts.band_hi!r}\n")
        out.write(f"  min_feasibility {ts.min_feasibility!r}\n")
        out.write(f"  within_bounds {str(ts.within_bounds).lower()}\n")
    out.write(f"overall_pass {str(rep.overall_pass).lower()}\n")
    return out.getvalue()


def report_to_csv(rep: CertReport) -> str:
    out = io.StringIO()
    out.write("check,samples,skipped,min_margin,worst_point,pass\n")
    for c in rep.checks:
        out.write(f"{c.name},{c.samples},{c.skipped},{c.min_margin!r},"
                  f"\"{c.worst_point}\",{str(c.passed).lower()}\n")
    if rep.tau_stats is not None:
        ts = rep.tau_stats
        out.write(f"tau_band,{rep.spec.count},0,{ts.min_feasibility!r},"
                  f"\"tau in [{ts.min!r}, {ts.max!r}]\",{str(ts.passed).lower()}\n")
    return out.getvalue()
