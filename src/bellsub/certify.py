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
one-leg margin is a minimum over random pairs of points.

Samples that `evaluate_batch` marks as cut points (within
bellman.CUT_TOLERANCE of an H4 branch cut) are excluded from the C^2 checks
(they are handled by the dedicated C^1 convergence check) and counted as
skipped.  All randomness flows through numpy SeedSequence spawns keyed by the
sample batch index, so reports are byte-identical for a given (cfg, spec) no
matter how many worker threads evaluate the batches.  The plan (spec) fixes
only the sample count and the seed; the domain sampled is cfg's.
"""

from __future__ import annotations

import io
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# unused here: perfbench/tracing.py wraps the three *_form functions as attributes of this module
from .bellman import (BellmanConfig, _tangential_coeff, b4_batch, evaluate_batch,
                      hessian_quadratic_form, kn_of_t, one_leg_margin, partial_xx_form,
                      partial_yy_form, profile_value)
from .errors import ConfigError
from .coefficients import validate_coefficients
from .weights import row_norm, row_sum

MARGIN_TOL = 1e-8
TAU_FEAS_TOL = 1e-6
KAPPA_LO = 0.1
KAPPA_HI = 10.0
BATCH = 2048


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


@dataclass
class CertReport:
    cfg: BellmanConfig
    spec: SampleSpec
    checks: list
    tau_stats: TauStats | None
    runtime: float = 0.0
    note: str = ""
    coefficients_ok: bool = True

    @property
    def overall_pass(self):
        ok = self.coefficients_ok and all(c.passed for c in self.checks)
        if self.tau_stats is not None:
            ok = ok and self.tau_stats.within_bounds \
                 and self.tau_stats.min_feasibility >= -TAU_FEAS_TOL
        return ok


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _sample_arrays(cfg: BellmanConfig, rng, count):
    """Points of D_Q^{eps, ell}: log(rs) uniform on [0, log t_max], log r
    uniform on the feasible slice, sphere directions with log-uniform radii.

    t_max = min(Q, eps^-2): the eps box caps rs at eps^-2, so for Q beyond
    that the admissible product range saturates.
    """
    tmax = min(cfg.Q, cfg.eps ** -2)
    t = np.exp(rng.uniform(0.0, np.log(tmax), count))
    r = np.exp(_slice_log_r(t, cfg.eps, rng.random(count)))
    s = t / r
    radius_x = np.exp(rng.uniform(np.log(cfg.ell), np.log(1.0 / cfg.eps), count))
    radius_y = np.exp(rng.uniform(np.log(cfg.ell), np.log(1.0 / cfg.eps), count))
    x = _sphere(rng, count, cfg.dim) * radius_x[:, None]
    y = _sphere(rng, count, cfg.dim) * radius_y[:, None]
    return x, y, r, s


def _slice_log_r(t, eps, u):
    """log r at relative position u in [0, 1] of the slice of the eps box on
    which rs = t: [log max(eps, t eps), log min(1/eps, t/eps)]."""
    lo = np.log(np.maximum(eps, t * eps))
    hi = np.log(np.minimum(1.0 / eps, t / eps))
    return lo + u * (hi - lo)


def _sphere(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / row_norm(v)[:, None]


def _streams(spec: SampleSpec):
    """Per-purpose, per-batch seed streams; fixed layout independent of workers."""
    n_batches = max(1, -(-spec.count // BATCH))
    root = np.random.SeedSequence(spec.seed)
    points, pairs = root.spawn(2)
    return {
        "points": points.spawn(n_batches),
        "pairs": pairs.spawn(n_batches),
    }, n_batches


def _point_batches(cfg: BellmanConfig, spec: SampleSpec):
    """(x, y, r, s) of each sample batch, in sample order."""
    streams, n_batches = _streams(spec)
    for b in range(n_batches):
        size = min(BATCH, spec.count - b * BATCH)
        if size > 0:
            yield _sample_arrays(cfg, np.random.default_rng(streams["points"][b]), size)


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
    """
    diag = np.diagonal(h, axis1=1, axis2=2)
    lo = np.minimum(np.min(2.0 * diag - row_sum(np.abs(h)), axis=1),
                    np.minimum(*tan)) - 1.0 / Q
    hi = np.min(diag, axis=1)
    u = np.full(len(h), 1.0 / Q)
    p0, p1, q0, q1 = h[:, 0, 2], h[:, 0, 3], h[:, 1, 2], h[:, 1, 3]
    c12 = h[:, 2, 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(64):     # the bracket shrinks to the float spacing
            lam = 0.5 * (lo + hi)
            c11, c22 = h[:, 2, 2] - lam, h[:, 3, 3] - lam
            det = c11 * c22 - c12 * c12

            def inv_form(x0, x1, y0, y1):
                return (c22 * x0 * y0 - c12 * (x0 * y1 + x1 * y0) + c11 * x1 * y1) / det

            m11 = h[:, 0, 0] - lam - inv_form(p0, p1, p0, p1)
            m22 = h[:, 1, 1] - lam - inv_form(q0, q1, q0, q1)
            m12 = h[:, 0, 1] - inv_form(p0, p1, q0, q1)
            top, side = np.minimum(m11, tan[0] - lam), np.minimum(m22, tan[1] - lam)
            floor = 1.0 / (Q * Q * side)
            cand = np.clip(np.sqrt(m11 / m22) / Q, floor, top)
            ok = ((c11 > 0.0) & (det > 0.0) & (top > 0.0) & (side > 0.0)
                  & (floor <= top)
                  & ((m11 - cand) * (m22 - 1.0 / (Q * Q * cand)) >= m12 * m12))
            lo = np.where(ok, lam, lo)
            hi = np.where(ok, hi, lam)
            u = np.where(ok, cand, u)
    return u


def _ellipse(h, tan, cfg):
    """Per point: the Hessian lower bound at the best tau found, that tau
    clipped into the band [eps/(10Q), 10Q/eps], and the exact feasibility
    min over unit dV of Q (d^2B dV, dV) - tau |dx|^2 - tau^-1 |dy|^2 there."""
    Q = cfg.Q
    u = _best_shift(h, tan, Q)
    lower = _ellipse_level(h, tan, u, Q)
    tau = np.clip(Q * u, KAPPA_LO * cfg.eps / Q, KAPPA_HI * Q / cfg.eps)
    return lower, tau, Q * _ellipse_level(h, tan, tau / Q, Q)


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
    rows = []
    ok = True
    idx = 0
    for x, y, r, s in _point_batches(cfg, spec):
        a, b = row_norm(x), row_norm(y)
        batch = evaluate_batch(a, b, r, s, cfg)
        _, tau, feas = _ellipse(*_radial(batch, cfg.dim), cfg)
        ok &= bool((feas[~batch.cut] >= -TAU_FEAS_TOL).all())
        rows += [(idx + i, float(r[i]), float(s[i]), float(a[i]), float(b[i]),
                  float(tau[i])) for i in range(len(r)) if not batch.cut[i]]
        idx += len(r)
    return rows, ok


# ---------------------------------------------------------------------------
# C^1 across the H4 cuts
# ---------------------------------------------------------------------------

def check_c1_across_cuts(cfg: BellmanConfig, n=1000, deltas=(1e-2, 1e-3, 1e-4),
                         seed=0):
    """One-sided gradients of the H4 block merge linearly at both cuts.

    For each cut and each delta, about n points of a fixed grid (see
    `_c1_grid`) are placed on the cut and displaced to both sides by a
    relative delta; the report carries the mean gradient mismatch normalized
    by the local gradient scale, the fitted log-log decay rate (expected ~1),
    and the corner behavior |grad| = O(delta) when both |x|, |y| <~ delta.

    `seed` is ignored: the grid draws nothing.  It stays in the signature so
    that callers which still pass it keep working.
    """
    report = {"deltas": list(deltas), "cuts": {}, "corner": {}, "rates": {}}
    for cut in ("xs_yk", "yr_xk"):
        mis = []
        for delta in deltas:
            m, scale = _cut_mismatch(cfg, n, delta, cut)
            mis.append({"delta": delta, "mean_mismatch": m, "gradient_scale": scale,
                        "normalized": m / scale})
        report["cuts"][cut] = mis
        lg = np.log([row["delta"] for row in mis])
        lm = np.log([max(row["mean_mismatch"], 1e-300) for row in mis])
        report["rates"][cut] = float(np.polyfit(lg, lm, 1)[0])
    for delta in deltas:
        report["corner"][delta] = _corner_gradient(cfg, max(n // 4, 16), delta)
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
    axes = [np.linspace(0.0, np.log(min(cfg.Q, cfg.eps ** -2)), m),
            np.linspace(0.0, 1.0, m)]
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
    gp = b4_batch(*plus, r, s, cfg, order=1).g
    gm = b4_batch(*minus, r, s, cfg, order=1).g
    mismatch = row_norm((gp - gm).T)
    scale = np.maximum(row_norm(gp.T), row_norm(gm.T))
    scale = np.maximum(scale, 1e-12)
    return float(np.mean(mismatch)), float(np.mean(scale))


def _corner_gradient(cfg, n, delta):
    """Near the double cut both |x|, |y| <~ delta and grad H4 itself is O(delta)."""
    r, s, _, (a, b) = _c1_grid(cfg, n, (0.1 * delta, delta), (0.1 * delta, delta))
    g = b4_batch(a, b, r, s, cfg, order=1).g
    return float(np.max(row_norm(g.T)) / delta)


# ---------------------------------------------------------------------------
# the certification run
# ---------------------------------------------------------------------------

def run_certification(cfg: BellmanConfig, spec: SampleSpec, jobs=1) -> CertReport:
    """Execute every check over spec.count samples; deterministic per seed.

    Check failures (including an infeasible coefficient draft) land in the
    report, which is produced either way; only malformed inputs raise.
    """
    t0 = time.perf_counter()
    note = ""
    coeffs_ok = True
    try:
        validate_coefficients(cfg.coefficients)
    except ConfigError as exc:
        coeffs_ok = False
        note = f"coefficient validation failed: {exc}"
    if spec.count == 0:
        return CertReport(cfg=cfg, spec=spec, checks=[], tau_stats=None,
                          runtime=time.perf_counter() - t0,
                          note=note or "no samples: checks pass vacuously",
                          coefficients_ok=coeffs_ok)

    streams, n_batches = _streams(spec)
    sizes = [min(BATCH, spec.count - b * BATCH) for b in range(n_batches)]

    def work(b):
        return _certify_batch(cfg, sizes[b], streams["points"][b], streams["pairs"][b])

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            parts = list(ex.map(work, range(n_batches)))
    else:
        parts = [work(b) for b in range(n_batches)]

    checks = []
    for name in ("hessian_lower", "one_leg", "size_bound", "dxx_bound", "dyy_bound"):
        margins = np.concatenate([p[name][0] for p in parts])
        points = np.concatenate([p[name][1] for p in parts], axis=0)
        skipped = sum(p[name][2] for p in parts)
        i = int(np.argmin(margins)) if len(margins) else 0
        checks.append(CheckRecord(
            name=name, samples=len(margins), skipped=skipped,
            min_margin=float(margins[i]) if len(margins) else 0.0,
            worst_point=_fmt_point(points[i]) if len(margins) else "",
            passed=bool(len(margins) == 0 or margins[i] >= -_tolerance(name))))

    taus = np.concatenate([p["tau"][0] for p in parts])
    feas = np.concatenate([p["tau"][1] for p in parts])
    band_lo, band_hi = KAPPA_LO * cfg.eps / cfg.Q, KAPPA_HI * cfg.Q / cfg.eps
    # with every sample excluded near the cuts the tau band holds vacuously:
    # min and max of the empty set read inf and -inf
    tau_stats = TauStats(
        min=float(taus.min(initial=np.inf)), max=float(taus.max(initial=-np.inf)),
        band_lo=band_lo, band_hi=band_hi,
        within_bounds=bool((taus >= band_lo).all() and (taus <= band_hi).all()),
        min_feasibility=float(feas.min(initial=np.inf)))
    return CertReport(cfg=cfg, spec=spec, checks=checks, tau_stats=tau_stats,
                      runtime=time.perf_counter() - t0, note=note,
                      coefficients_ok=coeffs_ok)


def _tolerance(name):
    return 0.0 if name == "size_bound" else MARGIN_TOL


def _certify_batch(cfg, size, pt_stream, pair_stream):
    x, y, r, s = _sample_arrays(cfg, np.random.default_rng(pt_stream), size)
    a, b = row_norm(x), row_norm(y)
    batch = evaluate_batch(a, b, r, s, cfg)
    pts = np.stack([a, b, r, s], axis=1)
    keep = ~batch.cut                   # the C^2 checks skip cut points
    skipped = int(batch.cut.sum())

    h, tan = _radial(batch, cfg.dim)
    lower, tau, feas = _ellipse(h, tan, cfg)
    out = {"hessian_lower": (lower[keep], pts[keep], skipped),
           "tau": (tau[keep], feas[keep])}

    # one-leg pairs: independent second sample, gradient at the first point
    x2, y2, r2, s2 = _sample_arrays(cfg, np.random.default_rng(pair_stream), size)
    a2, b2 = row_norm(x2), row_norm(y2)
    val2 = profile_value(a2, b2, r2, s2, cfg)
    ol_margin, _, _ = one_leg_margin(batch.g, batch.value, x / a[:, None], y / b[:, None],
                                     val2, x2 - x, y2 - y, r2 - r, s2 - s, cfg.Q)
    out["one_leg"] = (ol_margin, pts, 0)

    size_margin = cfg.size_constant * (a * a / r + b * b / s) - batch.value
    out["size_bound"] = (size_margin, pts, 0)

    cx, cy = _axis_curvatures(h, tan)
    cap = cfg.dxx_constant / cfg.eps
    out["dxx_bound"] = ((cap - cx)[keep], pts[keep], skipped)
    out["dyy_bound"] = ((cap - cy)[keep], pts[keep], skipped)
    return out


def _fmt_point(p):
    return (f"a={float(p[0])!r} b={float(p[1])!r} "
            f"r={float(p[2])!r} s={float(p[3])!r}")


# ---------------------------------------------------------------------------
# report serialization (runtime deliberately excluded: byte-identical reruns)
# ---------------------------------------------------------------------------

def report_to_text(rep: CertReport) -> str:
    out = io.StringIO()
    out.write("certification-report\n")
    out.write(f"Q {rep.cfg.Q!r}\neps {rep.cfg.eps!r}\nell {rep.cfg.ell!r}\n")
    out.write(f"dim {rep.cfg.dim}\nsamples {rep.spec.count}\nseed {rep.spec.seed}\n")
    out.write("coefficients " + " ".join(repr(c) for c in rep.cfg.coefficients) + "\n")
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
        ok = ts.within_bounds and ts.min_feasibility >= -TAU_FEAS_TOL
        out.write(f"tau_band,{rep.spec.count},0,{ts.min_feasibility!r},"
                  f"\"tau in [{ts.min!r}, {ts.max!r}]\",{str(ok).lower()}\n")
    return out.getvalue()
