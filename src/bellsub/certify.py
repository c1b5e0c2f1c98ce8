"""Sampled numerical certification of the Bellman function's properties.

Every claim the construction rests on is turned into a margin that must stay
above a small negative roundoff tolerance on seeded random samples:

  * size:          B <= C_size (|x|^2/r + |y|^2/s)
  * Hessian:       (d^2 B dV, dV) >= (2/Q) |dx||dy| away from the H4 cuts
  * one-leg:       B(V) - B(V0) - dB(V0)(V - V0) >= (2/Q)|x-x0||y-y0|
  * second x/y:    (d^2_x B dx, dx) <= C_xx eps^-1 |dx|^2 (and symmetric in y)
  * ellipse:       some tau with Q d^2B >= tau |dx|^2 + tau^-1 |dy|^2 exists
                   inside the reporting band [eps/(10Q), 10Q/eps]
  * C^1 cuts:      one-sided gradients of the H4 block merge at rate O(delta)

Samples near the H4 branch cuts are excluded from the C^2 checks (they are
handled by the dedicated C^1 convergence check) and counted as skipped.
All randomness flows through numpy SeedSequence spawns keyed by the sample
batch index, so reports are byte-identical for a given (cfg, spec) no matter
how many worker threads evaluate the batches.
"""

from __future__ import annotations

import io
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bellman import (CUT_TOLERANCE, BellmanConfig, StatePoint, Perturbation,
                      b4_batch, evaluate_batch, hessian_quadratic_form, kn_of_t,
                      partial_xx_form, partial_yy_form)
from .errors import CertificationError, ConfigError, DomainError
from .coefficients import validate_coefficients

MARGIN_TOL = 1e-8
TAU_FEAS_TOL = 1e-6
KAPPA_LO = 0.1
KAPPA_HI = 10.0
N_RANDOM_DIRECTIONS = 64
BATCH = 2048


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic sampling plan for certification runs."""

    count: int
    seed: int
    Q: float = 16.0
    eps: float = 0.1
    ell: float = 0.05
    dim: int = 2
    exclusion_margin: float = 1e-6

    def __post_init__(self):
        if self.count < 0:
            raise ConfigError("sample count must be nonnegative")
        if self.Q < 1.0:
            raise ConfigError("Q < 1 leaves the domain empty")
        if not 0.0 < self.eps < 1.0 or not 0.0 < self.ell <= self.eps / 2.0:
            raise ConfigError("need 0 < eps < 1 and 0 < ell <= eps/2")
        if self.exclusion_margin < CUT_TOLERANCE:
            raise ConfigError("exclusion margin below the cut tolerance")

    @staticmethod
    def from_config(cfg: BellmanConfig, count, seed, exclusion_margin=1e-6):
        return SampleSpec(count=count, seed=seed, Q=cfg.Q, eps=cfg.eps,
                          ell=cfg.ell, dim=cfg.dim,
                          exclusion_margin=exclusion_margin)


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

def _sample_arrays(spec: SampleSpec, rng, count):
    """Points of D_Q^{eps, ell}: log(rs) uniform on [0, log t_max], log r
    uniform on the feasible slice, sphere directions with log-uniform radii.

    t_max = min(Q, eps^-2): the eps box caps rs at eps^-2, so for Q beyond
    that the admissible product range saturates.
    """
    tmax = min(spec.Q, spec.eps ** -2)
    t = np.exp(rng.uniform(0.0, np.log(tmax), count))
    rlo = np.maximum(spec.eps, t * spec.eps)
    rhi = np.minimum(1.0 / spec.eps, t / spec.eps)
    r = np.exp(rng.uniform(np.log(rlo), np.log(rhi)))
    s = t / r
    radius_x = np.exp(rng.uniform(np.log(spec.ell), np.log(1.0 / spec.eps), count))
    radius_y = np.exp(rng.uniform(np.log(spec.ell), np.log(1.0 / spec.eps), count))
    x = _sphere(rng, count, spec.dim) * radius_x[:, None]
    y = _sphere(rng, count, spec.dim) * radius_y[:, None]
    return x, y, r, s


def _sphere(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _streams(spec: SampleSpec):
    """Per-purpose, per-batch seed streams; fixed layout independent of workers."""
    n_batches = max(1, -(-spec.count // BATCH))
    root = np.random.SeedSequence(spec.seed)
    points, pairs, dirs, taus = root.spawn(4)
    return {
        "points": points.spawn(n_batches),
        "pairs": pairs.spawn(n_batches),
        "dirs": dirs.spawn(n_batches),
        "taus": taus.spawn(n_batches),
    }, n_batches


def sample_domain(spec: SampleSpec):
    """Deterministic list of StatePoints satisfying the D_Q^{eps,ell} flags."""
    streams, n_batches = _streams(spec)
    pts = []
    for b in range(n_batches):
        lo = b * BATCH
        size = min(BATCH, spec.count - lo)
        if size <= 0:
            break
        x, y, r, s = _sample_arrays(spec, np.random.default_rng(streams["points"][b]), size)
        pts.extend(StatePoint(x=x[i], y=y[i], r=float(r[i]), s=float(s[i]))
                   for i in range(size))
    return pts


# ---------------------------------------------------------------------------
# direction banks
# ---------------------------------------------------------------------------

def _direction_bank(rng, n, d, xhat, yhat, n_random=N_RANDOM_DIRECTIONS):
    """(n, m, 2d+2) unit directions: random sphere plus structured axes."""
    dim = 2 * d + 2
    rnd = rng.standard_normal((n, n_random, dim))
    rnd /= np.linalg.norm(rnd, axis=2, keepdims=True)
    structured = np.zeros((n, 10, dim))
    xperp = _any_perp(xhat)
    yperp = _any_perp(yhat)
    structured[:, 0, :d] = xhat
    structured[:, 1, :d] = xperp
    structured[:, 2, d:2 * d] = yhat
    structured[:, 3, d:2 * d] = yperp
    structured[:, 4, 2 * d] = 1.0
    structured[:, 5, 2 * d + 1] = 1.0
    structured[:, 6, :d] = xhat / np.sqrt(2.0)
    structured[:, 6, d:2 * d] = yhat / np.sqrt(2.0)
    structured[:, 7, :d] = xhat / np.sqrt(2.0)
    structured[:, 7, 2 * d] = 1.0 / np.sqrt(2.0)
    structured[:, 8, d:2 * d] = yhat / np.sqrt(2.0)
    structured[:, 8, 2 * d + 1] = 1.0 / np.sqrt(2.0)
    structured[:, 9, 2 * d] = 1.0 / np.sqrt(2.0)
    structured[:, 9, 2 * d + 1] = -1.0 / np.sqrt(2.0)
    return np.concatenate([rnd, structured], axis=1)


def _any_perp(u):
    """Some unit vector orthogonal to each row of u (rows of dim >= 2), or u itself in dim 1."""
    n, d = u.shape
    if d == 1:
        return u.copy()
    v = np.zeros_like(u)
    v[:, 0] = -u[:, 1]
    v[:, 1] = u[:, 0]
    small = np.linalg.norm(v, axis=1) < 1e-12
    if small.any():
        v[small, 0] = 1.0
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _split_directions(dirs, d):
    return dirs[:, :, :d], dirs[:, :, d:2 * d], dirs[:, :, 2 * d], dirs[:, :, 2 * d + 1]


# ---------------------------------------------------------------------------
# single-point check API
# ---------------------------------------------------------------------------

def _one_point_batch(V: StatePoint, cfg: BellmanConfig):
    a, b = V.xnorm, V.ynorm
    batch = evaluate_batch(np.array([a]), np.array([b]),
                           np.array([V.r]), np.array([V.s]), cfg)
    xhat = (V.x / a if a > 0 else np.zeros_like(V.x))[None, :]
    yhat = (V.y / b if b > 0 else np.zeros_like(V.y))[None, :]
    return batch, xhat, yhat


def check_hessian_lower(V: StatePoint, dV: Perturbation, cfg: BellmanConfig):
    """hessian_form(dV) - (2/Q)|dx||dy|; None when V sits on a cut (skipped)."""
    batch, xhat, yhat = _one_point_batch(V, cfg)
    if batch.cut[0]:
        return None
    form = hessian_quadratic_form(batch, xhat, yhat,
                                  dV.dx[None, None, :], dV.dy[None, None, :],
                                  np.array([[dV.dr]]), np.array([[dV.ds]]))[0, 0]
    return float(form - (2.0 / cfg.Q) * np.linalg.norm(dV.dx) * np.linalg.norm(dV.dy))


def check_one_leg(V0: StatePoint, V: StatePoint, cfg: BellmanConfig, constant=2.0):
    """B(V) - B(V0) - dB(V0)(V - V0) - (constant/Q)|x-x0||y-y0|.

    Both values go through the same evaluation path so the margin is exactly
    zero at V = V0.
    """
    from .bellman import domain_check, bellman_value
    for P in (V0, V):
        if not domain_check(P, cfg).in_DQ_eps:
            raise DomainError("one-leg check requires both points in D_Q^eps")
    batch, xhat, yhat = _one_point_batch(V0, cfg)
    lin = (batch.g[0][0] * float(xhat[0] @ (V.x - V0.x))
           + batch.g[1][0] * float(yhat[0] @ (V.y - V0.y))
           + batch.g[2][0] * (V.r - V0.r) + batch.g[3][0] * (V.s - V0.s))
    jump = np.linalg.norm(V.x - V0.x) * np.linalg.norm(V.y - V0.y)
    return float(bellman_value(V.x, V.y, V.r, V.s, cfg)
                 - bellman_value(V0.x, V0.y, V0.r, V0.s, cfg) - lin
                 - (constant / cfg.Q) * jump)


def check_partial_xx_bound(V: StatePoint, dx, cfg: BellmanConfig):
    """C_xx eps^-1 |dx|^2 - (d^2_x B dx, dx) (symmetric helper for y below)."""
    batch, xhat, _ = _one_point_batch(V, cfg)
    if batch.cut[0]:
        return None
    dx = np.asarray(dx, dtype=float)
    form = partial_xx_form(batch, xhat, dx[None, None, :])[0, 0]
    return float(cfg.dxx_constant / cfg.eps * dx @ dx - form)


def check_partial_yy_bound(V: StatePoint, dy, cfg: BellmanConfig):
    batch, _, yhat = _one_point_batch(V, cfg)
    if batch.cut[0]:
        return None
    dy = np.asarray(dy, dtype=float)
    form = partial_yy_form(batch, yhat, dy[None, None, :])[0, 0]
    return float(cfg.dxx_constant / cfg.eps * dy @ dy - form)


def extract_tau(V: StatePoint, cfg: BellmanConfig, n_directions=N_RANDOM_DIRECTIONS,
                seed=0):
    """tau with Q (d^2B dV,dV) >= tau |dx|^2 + tau^-1 |dy|^2 over sampled
    directions, found by golden-section maximin on log tau over
    [eps/(100Q), 100Q/eps] and reported inside [eps/(10Q), 10Q/eps].

    When the unclamped maximin lies outside the reporting band but the band
    edge still satisfies all sampled directions (the maximin is flat there),
    the edge value is returned.  Raises CertificationError with the worst
    direction when no feasible tau exists in the band.
    """
    batch, xhat, yhat = _one_point_batch(V, cfg)
    if batch.cut[0]:
        raise DomainError("tau extraction needs a C^2 point (V lies on a cut)")
    rng = np.random.default_rng(seed)
    dirs = _direction_bank(rng, 1, V.x.shape[0], xhat, yhat, n_directions)
    dx, dy, dr, ds = _split_directions(dirs, V.x.shape[0])
    H = hessian_quadratic_form(batch, xhat, yhat, dx, dy, dr, ds)
    dx2 = np.sum(dx * dx, axis=2)
    dy2 = np.sum(dy * dy, axis=2)
    tau, feas = _tau_maximin(H, dx2, dy2, cfg)
    if feas[0] < -TAU_FEAS_TOL:
        worst = np.argmin(cfg.Q * H[0] - tau[0] * dx2[0] - dy2[0] / tau[0])
        raise CertificationError(
            f"no feasible tau in the reporting band at this point "
            f"(worst margin {feas[0]:.3e})", witness=dirs[0, worst])
    return float(tau[0])


def _tau_maximin(H, dx2, dy2, cfg, iters=80):
    """Vectorized golden-section maximin over log tau; returns the feasible
    in-band tau (n,) and its min margin (n,)."""
    Q = cfg.Q
    lo, hi = np.log(cfg.eps / (100.0 * Q)), np.log(100.0 * Q / cfg.eps)
    band_lo, band_hi = KAPPA_LO * cfg.eps / Q, KAPPA_HI * Q / cfg.eps

    def gmin(logt):
        t = np.exp(logt)
        return np.min(Q * H - t[:, None] * dx2 - dy2 / t[:, None], axis=1)

    n = H.shape[0]
    a = np.full(n, lo)
    b = np.full(n, hi)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = gmin(c), gmin(d)
    for _ in range(iters):
        left = fc >= fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = gmin(c), gmin(d)
    tau = np.exp(0.5 * (a + b))
    tau = np.clip(tau, band_lo, band_hi)
    feas = np.min(Q * H - tau[:, None] * dx2 - dy2 / tau[:, None], axis=1)
    return tau, feas


def tau_sweep(cfg: BellmanConfig, spec: SampleSpec):
    """Per-sample ellipse constants over the sampling plan.

    Returns (rows, ok): rows of (index, r, s, |x|, |y|, tau) in sample order,
    skipping cut-adjacent points; ok is False when any point has no feasible
    in-band tau.
    """
    streams, n_batches = _streams(spec)
    rows = []
    ok = True
    idx = 0
    for bidx in range(n_batches):
        size = min(BATCH, spec.count - bidx * BATCH)
        if size <= 0:
            break
        x, y, r, s = _sample_arrays(spec, np.random.default_rng(streams["points"][bidx]), size)
        a = np.linalg.norm(x, axis=1)
        b = np.linalg.norm(y, axis=1)
        xhat = x / a[:, None]
        yhat = y / b[:, None]
        batch = evaluate_batch(a, b, r, s, cfg)
        dirs = _direction_bank(np.random.default_rng(streams["taus"][bidx]),
                               size, spec.dim, xhat, yhat)
        dx, dy, dr, ds = _split_directions(dirs, spec.dim)
        H = hessian_quadratic_form(batch, xhat, yhat, dx, dy, dr, ds)
        tau, feas = _tau_maximin(H, np.sum(dx * dx, axis=2),
                                 np.sum(dy * dy, axis=2), cfg)
        ok &= bool((feas[~batch.cut] >= -TAU_FEAS_TOL).all())
        for i in range(size):
            if not batch.cut[i]:
                rows.append((idx, float(r[i]), float(s[i]), float(a[i]),
                             float(b[i]), float(tau[i])))
            idx += 1
    return rows, ok


# ---------------------------------------------------------------------------
# C^1 across the H4 cuts
# ---------------------------------------------------------------------------

def check_c1_across_cuts(cfg: BellmanConfig, n=1000, deltas=(1e-2, 1e-3, 1e-4),
                         seed=0):
    """One-sided gradients of the H4 block merge linearly at both cuts.

    For each cut and each delta, n points are placed on the cut and displaced
    to both sides by a relative delta; the report carries the mean gradient
    mismatch normalized by the local gradient scale, the fitted log-log decay
    rate (expected ~1), and the corner behavior |grad| = O(delta) when both
    |x|, |y| <~ delta.
    """
    rng = np.random.default_rng(seed)
    report = {"deltas": list(deltas), "cuts": {}, "corner": {}, "rates": {}}
    for cut in ("xs_yk", "yr_xk"):
        mis = []
        for delta in deltas:
            m, scale = _cut_mismatch(cfg, rng, n, delta, cut)
            mis.append({"delta": delta, "mean_mismatch": m, "gradient_scale": scale,
                        "normalized": m / scale})
        report["cuts"][cut] = mis
        lg = np.log([row["delta"] for row in mis])
        lm = np.log([max(row["mean_mismatch"], 1e-300) for row in mis])
        report["rates"][cut] = float(np.polyfit(lg, lm, 1)[0])
    for delta in deltas:
        report["corner"][delta] = _corner_gradient(cfg, rng, max(n // 4, 16), delta)
    report["pass"] = all(r >= 0.9 for r in report["rates"].values()) and all(
        row["normalized"] <= 1e-2 for row in report["cuts"]["xs_yk"][-1:]
        + report["cuts"]["yr_xk"][-1:])
    return report


def _cut_rs(cfg, rng, n):
    tmax = min(cfg.Q, cfg.eps ** -2)
    t = np.exp(rng.uniform(0.0, np.log(tmax), n))
    r = np.exp(rng.uniform(np.log(np.maximum(cfg.eps, t * cfg.eps)),
                           np.log(np.minimum(1.0 / cfg.eps, t / cfg.eps))))
    s = t / r
    k = kn_of_t(t, cfg.Q)[0][0]
    return r, s, k


def _cut_mismatch(cfg, rng, n, delta, cut):
    r, s, k = _cut_rs(cfg, rng, n)
    if cut == "xs_yk":      # a s = b k, approach R1 (+) vs R2 (-)
        b = np.exp(rng.uniform(np.log(2 * cfg.ell), np.log(0.5 / cfg.eps), n))
        a = b * k / s
        ap, am = a * (1 + delta), a * (1 - delta)
        bp = bm = b
    else:                    # b r = a k, approach R1 (+) vs R3 (-)
        a = np.exp(rng.uniform(np.log(2 * cfg.ell), np.log(0.5 / cfg.eps), n))
        b = a * k / r
        bp, bm = b * (1 + delta), b * (1 - delta)
        ap = am = a
    gp = b4_batch(ap, bp, r, s, cfg).g
    gm = b4_batch(am, bm, r, s, cfg).g
    mismatch = np.linalg.norm(gp - gm, axis=0)
    scale = np.maximum(np.linalg.norm(gp, axis=0), np.linalg.norm(gm, axis=0))
    scale = np.maximum(scale, 1e-12)
    return float(np.mean(mismatch)), float(np.mean(scale))


def _corner_gradient(cfg, rng, n, delta):
    """Near the double cut both |x|, |y| <~ delta and grad H4 itself is O(delta)."""
    r, s, k = _cut_rs(cfg, rng, n)
    a = delta * np.exp(rng.uniform(np.log(0.1), 0.0, n))
    b = delta * np.exp(rng.uniform(np.log(0.1), 0.0, n))
    g = b4_batch(a, b, r, s, cfg).g
    return float(np.max(np.linalg.norm(g, axis=0)) / delta)


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
        validate_coefficients(cfg.coefficients, grid_size=9, n_random=20_000)
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
        return _certify_batch(cfg, spec, sizes[b],
                              streams["points"][b], streams["pairs"][b],
                              streams["dirs"][b], streams["taus"][b])

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
    tau_stats = TauStats(
        min=float(taus.min()), max=float(taus.max()),
        band_lo=band_lo, band_hi=band_hi,
        within_bounds=bool((taus >= band_lo).all() and (taus <= band_hi).all()),
        min_feasibility=float(feas.min()))
    return CertReport(cfg=cfg, spec=spec, checks=checks, tau_stats=tau_stats,
                      runtime=time.perf_counter() - t0, note=note,
                      coefficients_ok=coeffs_ok)


def _tolerance(name):
    return 0.0 if name == "size_bound" else MARGIN_TOL


def _certify_batch(cfg, spec, size, pt_stream, pair_stream, dir_stream, tau_stream):
    d = spec.dim
    x, y, r, s = _sample_arrays(spec, np.random.default_rng(pt_stream), size)
    a = np.linalg.norm(x, axis=1)
    b = np.linalg.norm(y, axis=1)
    xhat = x / a[:, None]
    yhat = y / b[:, None]
    batch = evaluate_batch(a, b, r, s, cfg)
    pts = np.stack([a, b, r, s], axis=1)

    # distance to the cuts in units of the local scale; C^2 checks skip nearby
    t = r * s
    k = kn_of_t(t, cfg.Q)[0][0]
    gap = np.minimum(np.abs(b * r - a * k), np.abs(a * s - b * k))
    keep = gap >= spec.exclusion_margin * np.maximum(np.maximum(a, b), 1.0)

    dirs = _direction_bank(np.random.default_rng(dir_stream), size, d, xhat, yhat)
    dx, dy, dr, ds = _split_directions(dirs, d)
    H = hessian_quadratic_form(batch, xhat, yhat, dx, dy, dr, ds)
    dxn = np.sqrt(np.sum(dx * dx, axis=2))
    dyn = np.sqrt(np.sum(dy * dy, axis=2))
    hess_margin = np.min(H - (2.0 / cfg.Q) * dxn * dyn, axis=1)

    out = {"hessian_lower": (hess_margin[keep], pts[keep], int((~keep).sum()))}

    # one-leg pairs: independent second sample, gradient at the first point
    x2, y2, r2, s2 = _sample_arrays(spec, np.random.default_rng(pair_stream), size)
    a2 = np.linalg.norm(x2, axis=1)
    b2 = np.linalg.norm(y2, axis=1)
    val2 = _value_only(a2, b2, r2, s2, cfg)
    val0 = _value_only(a, b, r, s, cfg)
    lin = (batch.g[0] * np.sum(xhat * (x2 - x), axis=1)
           + batch.g[1] * np.sum(yhat * (y2 - y), axis=1)
           + batch.g[2] * (r2 - r) + batch.g[3] * (s2 - s))
    jump = np.linalg.norm(x2 - x, axis=1) * np.linalg.norm(y2 - y, axis=1)
    ol_margin = val2 - val0 - lin - (2.0 / cfg.Q) * jump
    out["one_leg"] = (ol_margin, pts, 0)

    size_margin = cfg.size_constant * (a * a / r + b * b / s) - batch.value
    out["size_bound"] = (size_margin, pts, 0)

    # normalized per |dx|^2 so zero-dx directions do not report trivially
    xx = partial_xx_form(batch, xhat, dx)
    with np.errstate(invalid="ignore", divide="ignore"):
        xx_margin = np.nanmin(np.where(dxn > 1e-12,
                                       cfg.dxx_constant / cfg.eps - xx / dxn ** 2,
                                       np.nan), axis=1)
        yy = partial_yy_form(batch, yhat, dy)
        yy_margin = np.nanmin(np.where(dyn > 1e-12,
                                       cfg.dxx_constant / cfg.eps - yy / dyn ** 2,
                                       np.nan), axis=1)
    out["dxx_bound"] = (xx_margin[keep], pts[keep], int((~keep).sum()))
    out["dyy_bound"] = (yy_margin[keep], pts[keep], int((~keep).sum()))

    tau_dirs = _direction_bank(np.random.default_rng(tau_stream), size, d, xhat, yhat)
    tdx, tdy, tdr, tds = _split_directions(tau_dirs, d)
    TH = hessian_quadratic_form(batch, xhat, yhat, tdx, tdy, tdr, tds)
    tau, tfeas = _tau_maximin(TH[keep], np.sum(tdx * tdx, axis=2)[keep],
                              np.sum(tdy * tdy, axis=2)[keep], cfg)
    out["tau"] = (tau, tfeas)
    return out


def _value_only(a, b, r, s, cfg):
    from .bellman import profile_value
    return profile_value(a, b, r, s, cfg)


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
