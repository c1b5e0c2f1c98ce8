import dataclasses

import numpy as np
import pytest

import bellsub as bs
from bellsub import bellman as bm
from bellsub import certify as ct
from bellsub.bellman import (bellman_value, evaluate_batch, hessian_quadratic_form,
                             partial_xx_form, partial_yy_form)
from bellsub.errors import ConfigError
from oracles import direction_bank, split_directions

CFG = bs.BellmanConfig(Q=16.0)


def sample(cfg, count, seed):
    return ct.sample_domain(cfg, ct.SampleSpec(count=count, seed=seed))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_domain_deterministic():
    p1 = sample(CFG, 1, seed=7)[0]
    p2 = sample(CFG, 1, seed=7)[0]
    assert np.array_equal(p1.x, p2.x) and np.array_equal(p1.y, p2.y)
    assert p1.r == p2.r and p1.s == p2.s


@pytest.mark.parametrize("Q", (1.0, 16.0))
def test_sampled_points_satisfy_domain_flags(Q):
    cfg = bs.BellmanConfig(Q=Q)
    for V in sample(cfg, 10_000, seed=3):
        flags = bs.domain_check(V, cfg)
        assert flags.in_DQ_eps_ell


def test_single_point_checks_take_the_q1_samples_below_rs_1():
    # at Q = 1 every sample has rs = 1, and about one in seven float
    # products r*s reads 1 - 2^-53; those points lie in the slack band of
    # D_Q, which the batch path certifies and the single-point checks take
    cfg = bs.BellmanConfig(Q=1.0)
    below = [V for V in sample(cfg, 2000, seed=1) if V.r * V.s < 1.0]
    assert below and all(V.r * V.s == 1.0 - 2.0 ** -53 for V in below)
    V = next(V for V in below if bs.eval_B(V, cfg).region.tag != "CUT")
    dV = bs.Perturbation(dx=[1.0, 0.0], dy=[0.0, 1.0], dr=0.1, ds=-0.1)
    assert ct.extract_tau(V, cfg) > 0.0
    assert ct.check_hessian_lower(V, dV, cfg) is not None


def test_log_rs_uniformity_chi2():
    from scipy.stats import chi2
    spec = ct.SampleSpec(count=100_000, seed=11)
    streams, nb = ct._streams(spec)
    ts = []
    for b in range(nb):
        size = min(ct.BATCH, spec.count - b * ct.BATCH)
        x, y, r, s = ct._sample_arrays(CFG, np.random.default_rng(streams["points"][b]), size)
        ts.append(r * s)
    logt = np.log(np.concatenate(ts))
    tmax = min(CFG.Q, CFG.eps ** -2)
    k = 40
    counts, _ = np.histogram(logt, bins=k, range=(0.0, np.log(tmax)))
    expect = spec.count / k
    stat = float(((counts - expect) ** 2 / expect).sum())
    assert stat < chi2.ppf(0.999, k - 1)


def test_sample_plan_takes_its_domain_from_the_config():
    # a plan holds no Q, eps, ell or dim of its own that could contradict
    # the config it is run under
    assert [f.name for f in dataclasses.fields(ct.SampleSpec)] == \
        ["count", "seed"]
    cfg = bs.BellmanConfig(Q=2.0, dim=1)
    for V in sample(cfg, 200, seed=1):
        assert V.x.shape == V.y.shape == (1,)
        assert bs.domain_check(V, cfg).in_DQ_eps_ell


def test_sample_spec_validation():
    with pytest.raises(ConfigError):
        bs.BellmanConfig(Q=0.5)
    with pytest.raises(ConfigError):
        ct.SampleSpec(count=-1, seed=0)


# ---------------------------------------------------------------------------
# single-point checks
# ---------------------------------------------------------------------------

def test_hessian_margin_zero_direction():
    V = sample(CFG, 1, seed=5)[0]
    zero = bs.Perturbation(dx=[0.0, 0.0], dy=[0.0, 0.0], dr=0.0, ds=0.0)
    assert ct.check_hessian_lower(V, zero, CFG) == 0.0


def test_hessian_margin_reduces_to_convexity_when_dy_zero():
    rng = np.random.default_rng(13)
    for V in sample(CFG, 50, seed=17):
        d = rng.standard_normal(2)
        dV = bs.Perturbation(dx=d, dy=[0.0, 0.0], dr=rng.standard_normal(),
                             ds=rng.standard_normal())
        m = ct.check_hessian_lower(V, dV, CFG)
        if m is not None:
            assert m >= -1e-10


def test_one_leg_same_point_and_taylor_consistency():
    pts = sample(CFG, 40, seed=19)
    rng = np.random.default_rng(23)
    for V in pts[:10]:
        assert ct.check_one_leg(V, V, CFG) == 0.0
    checked = 0
    for V in pts:
        res = bs.eval_B(V, CFG)
        if res.region.tag == "CUT":
            continue
        d = rng.standard_normal(6)
        d /= np.linalg.norm(d)
        dV = bs.Perturbation(dx=d[:2], dy=d[2:4], dr=d[4], ds=d[5])
        h = res.hessian_form(dV)
        for t in (1e-2, 1e-3):
            W = bs.StatePoint(x=V.x + t * d[:2], y=V.y + t * d[2:4],
                              r=V.r + t * d[4], s=V.s + t * d[5])
            if not bs.domain_check(W, CFG).in_DQ_eps:
                continue
            gap = (bellman_value(W.x, W.y, W.r, W.s, CFG) - res.value
                   - res.gradient @ np.concatenate([t * d[:2], t * d[2:4], [t * d[4]], [t * d[5]]]))
            # second-order Taylor: gap / t^2 -> h/2
            if t == 1e-3 and abs(h) > 1e-6:
                assert gap / t ** 2 == pytest.approx(h / 2.0, rel=1e-2, abs=1e-5)
                checked += 1
    assert checked >= 10


def test_partial_bounds_single_point():
    V = sample(CFG, 1, seed=29)[0]
    assert ct.check_partial_xx_bound(V, [0.0, 0.0], CFG) >= 0.0
    rng = np.random.default_rng(31)
    for _ in range(20):
        dx = rng.standard_normal(2)
        mx = ct.check_partial_xx_bound(V, dx, CFG)
        my = ct.check_partial_yy_bound(V, dx, CFG)
        assert mx >= -1e-8 and my >= -1e-8
    # the B1 block alone is the textbook case: d2x = 2|dx|^2 / r <= 2/eps
    assert 2.0 / V.r <= 2.0 / CFG.eps + 1e-12


def test_extract_tau_in_band_and_feasible():
    for V in sample(CFG, 30, seed=37):
        try:
            tau = ct.extract_tau(V, CFG)
        except bs.DomainError:
            continue
        lo = ct.KAPPA_LO * CFG.eps / CFG.Q
        hi = ct.KAPPA_HI * CFG.Q / CFG.eps
        assert lo <= tau <= hi


def test_tau_scaling_recorded_not_asserted(capsys):
    # x -> lam x, y -> y / lam at fixed (r, s); behavior is reported only
    V = sample(CFG, 1, seed=43)[0]
    rows = []
    for lam in (0.5, 1.0, 2.0):
        W = bs.StatePoint(x=lam * V.x, y=V.y / lam, r=V.r, s=V.s)
        try:
            rows.append((lam, ct.extract_tau(W, CFG)))
        except (bs.DomainError, bs.CertificationError):
            rows.append((lam, float("nan")))
    print("tau scaling under x->lam x, y->y/lam:", rows)
    assert len(rows) == 3


# ---------------------------------------------------------------------------
# the exact ellipse certificate against the sampled direction bank
# ---------------------------------------------------------------------------

def _bank(Q, dim, n=2048, seed=1):
    cfg = bs.BellmanConfig(Q=Q, dim=dim)
    spec = ct.SampleSpec(count=n, seed=seed)
    x, y, r, s = next(ct._point_batches(cfg, spec))
    a, b = np.linalg.norm(x, axis=1), np.linalg.norm(y, axis=1)
    xhat, yhat = x / a[:, None], y / b[:, None]
    batch = evaluate_batch(a, b, r, s, cfg)
    dirs = direction_bank(np.random.default_rng(seed), n, dim, xhat, yhat)
    return cfg, batch, xhat, yhat, dirs


def _ellipse_form(batch, xhat, yhat, dirs, tau, Q):
    """Q (d^2B dV, dV) - tau |dx|^2 - tau^-1 |dy|^2 per point and direction."""
    dx, dy, dr, ds = split_directions(dirs, xhat.shape[1])
    form = hessian_quadratic_form(batch, xhat, yhat, dx, dy, dr, ds)
    t = np.asarray(tau)[:, None]
    return Q * form - t * np.sum(dx * dx, axis=-1) - np.sum(dy * dy, axis=-1) / t


@pytest.mark.parametrize("dim", (1, 2, 3))
@pytest.mark.parametrize("Q", (2.0, 16.0, 256.0))
def test_ellipse_certificate_bounds_every_sampled_direction(Q, dim):
    cfg, batch, xhat, yhat, dirs = _bank(Q, dim)
    h, tan = ct._radial(batch, dim)
    lower, tau, feas = ct._ellipse(h, tan, cfg)
    roundoff = 1e-12 * np.max(np.abs(h), axis=(1, 2))[:, None]
    dx, dy, dr, ds = split_directions(dirs, dim)
    margin = (hessian_quadratic_form(batch, xhat, yhat, dx, dy, dr, ds)
              - (2.0 / Q) * np.linalg.norm(dx, axis=-1) * np.linalg.norm(dy, axis=-1))
    assert (lower[:, None] <= margin + roundoff).all()
    assert lower.min() > 0.0
    assert (feas[:, None] <= _ellipse_form(batch, xhat, yhat, dirs, tau, Q)
            + Q * roundoff).all()
    assert ((tau >= ct.KAPPA_LO * cfg.eps / Q) & (tau <= ct.KAPPA_HI * Q / cfg.eps)).all()


@pytest.mark.parametrize("Q", (1.0, 2.0, 16.0, 256.0))
def test_ellipse_certificate_is_positive_on_the_cuts(Q):
    # the certificate of a cut point is the one of the branch its masks
    # assign, which the C^2 checks skip; it still holds there
    cfg = bs.BellmanConfig(Q=Q)
    x, y, r, s = ct._sample_arrays(cfg, np.random.default_rng(0), 20_000)
    a, b = np.linalg.norm(x, axis=1), np.linalg.norm(y, axis=1)
    k = bm.kn_of_t(r * s, Q)[0][0]
    for on_cut in ((b * k / s, b), (a, a * k / r)):      # |x|s = |y|K, |y|r = |x|K
        batch = evaluate_batch(*on_cut, r, s, cfg)
        assert batch.cut.all()
        lower, _, _ = ct._ellipse(*ct._radial(batch, cfg.dim), cfg)
        assert lower.min() > 0.0


@pytest.mark.parametrize("dim", (1, 2, 3))
@pytest.mark.parametrize("Q", (2.0, 16.0, 256.0))
def test_ellipse_witness_attains_the_feasibility(Q, dim):
    cfg, batch, xhat, yhat, _ = _bank(Q, dim)
    h, tan = ct._radial(batch, dim)
    _, tau, feas = ct._ellipse(h, tan, cfg)
    witness, value = ct._witness(h, tan, xhat, yhat, tau, Q)
    assert np.allclose(np.linalg.norm(witness, axis=1), 1.0, rtol=0, atol=1e-12)
    scale = Q * 1e-12 * np.max(np.abs(h), axis=(1, 2))
    assert (np.abs(value - feas) <= scale).all()
    at_witness = _ellipse_form(batch, xhat, yhat, witness[:, None, :], tau, Q)[:, 0]
    assert (np.abs(at_witness - feas) <= scale).all()


@pytest.mark.parametrize("dim", (1, 2, 3))
@pytest.mark.parametrize("Q", (2.0, 16.0, 256.0))
def test_axis_curvatures_equal_the_bank_maximum(Q, dim):
    _, batch, xhat, yhat, dirs = _bank(Q, dim)
    cx, cy = ct._axis_curvatures(*ct._radial(batch, dim))
    # entries 0, 1 of the bank are xhat and x_perp; 2, 3 are yhat and y_perp
    dx, dy = split_directions(dirs[:, :4], dim)[:2]
    bank_x = np.max(partial_xx_form(batch, xhat, dx[:, :2]), axis=1)
    bank_y = np.max(partial_yy_form(batch, yhat, dy[:, 2:]), axis=1)
    assert (np.abs(cx - bank_x) <= 1e-12 * np.abs(bank_x)).all()
    assert (np.abs(cy - bank_y) <= 1e-12 * np.abs(bank_y)).all()


def test_extract_tau_failure_names_a_violating_direction():
    weak = bs.BellmanConfig(Q=16.0, c7=1e-3)
    failures = 0
    for V in sample(weak, 200, seed=79):
        try:
            ct.extract_tau(V, weak)
        except bs.CertificationError as err:
            batch, xhat, yhat = bm.evaluate_point(V, weak)
            _, tau, feas = ct._ellipse(*ct._radial(batch, 2), weak)
            value = _ellipse_form(batch, xhat, yhat, err.witness[None, None, :],
                                  tau, weak.Q)[0, 0]
            assert value == pytest.approx(feas[0], rel=1e-9) and value < 0.0
            failures += 1
    assert failures > 0


# ---------------------------------------------------------------------------
# C1 across cuts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("Q", [1.0, 2.0, 16.0, 256.0, 1e4])
def test_c1_across_cuts_linear_decay(Q):
    cfg = bs.BellmanConfig(Q=Q)
    rep = ct.check_c1_across_cuts(cfg, n=300, seed=0)
    assert rep == ct.check_c1_across_cuts(cfg, n=300, seed=53)    # draws nothing
    assert rep["pass"]
    for cut in ("xs_yk", "yr_xk"):
        assert rep["rates"][cut] >= 0.9
        assert rep["cuts"][cut][-1]["normalized"] <= 1e-2
    # corner case: gradient itself is O(delta) when |x|, |y| <= delta
    assert all(v <= 50.0 for v in rep["corner"].values())


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_certification_empty():
    rep = ct.run_certification(CFG, ct.SampleSpec(count=0, seed=1))
    assert rep.overall_pass and rep.note.startswith("no samples")
    assert "no samples" in ct.report_to_text(rep)


def test_run_certification_with_every_sample_near_a_cut(monkeypatch):
    monkeypatch.setattr(bm, "CUT_TOLERANCE", 1e3)
    rep = ct.run_certification(CFG, ct.SampleSpec(count=300, seed=1))
    by_name = {c.name: c for c in rep.checks}
    for name in ("hessian_lower", "dxx_bound", "dyy_bound"):
        assert by_name[name].samples == 0 and by_name[name].skipped == 300
    assert by_name["one_leg"].samples == 300
    ts = rep.tau_stats
    assert ts.within_bounds and ts.min_feasibility == np.inf
    assert rep.overall_pass
    assert "min_feasibility inf" in ct.report_to_text(rep)


def test_certify_and_tau_sweep_skip_the_same_cut_points(monkeypatch):
    # one cut rule: widened, it moves the skips of both commands together
    monkeypatch.setattr(bm, "CUT_TOLERANCE", 2e-2)
    spec = ct.SampleSpec(count=3000, seed=1)
    rep = ct.run_certification(CFG, spec)
    rows, _ = ct.tau_sweep(CFG, spec)
    by_name = {c.name: c for c in rep.checks}
    skipped = by_name["hessian_lower"].skipped
    assert 0 < skipped < spec.count
    for name in ("hessian_lower", "dxx_bound", "dyy_bound"):
        assert by_name[name].skipped == skipped
        assert by_name[name].samples == len(rows) == spec.count - skipped
    cut = np.concatenate([evaluate_batch(np.linalg.norm(x, axis=1), np.linalg.norm(y, axis=1),
                                         r, s, CFG).cut
                          for x, y, r, s in ct._point_batches(CFG, spec)])
    assert [row[0] for row in rows] == list(np.flatnonzero(~cut))


def test_run_certification_deterministic_and_jobs_independent():
    spec = ct.SampleSpec(count=3000, seed=59)
    r1 = ct.run_certification(CFG, spec, jobs=1)
    r2 = ct.run_certification(CFG, spec, jobs=1)
    r4 = ct.run_certification(CFG, spec, jobs=4)
    t1, t2, t4 = map(ct.report_to_text, (r1, r2, r4))
    assert t1 == t2 == t4
    c1, c4 = ct.report_to_csv(r1), ct.report_to_csv(r4)
    assert c1 == c4
    assert r1.overall_pass


def test_report_formats_contain_all_checks():
    spec = ct.SampleSpec(count=500, seed=61)
    rep = ct.run_certification(CFG, spec)
    text = ct.report_to_text(rep)
    csv = ct.report_to_csv(rep)
    for name in ("hessian_lower", "one_leg", "size_bound", "dxx_bound",
                 "dyy_bound", "tau"):
        assert name in text and name in csv
    assert csv.splitlines()[0] == "check,samples,skipped,min_margin,worst_point,pass"


def test_n_concavity_constants_reported(capsys):
    """The implied constants in the auxiliary concavity estimates of N are
    unspecified; they are estimated empirically here and only reported."""
    rng = np.random.default_rng(67)
    Q = CFG.Q
    t = np.exp(rng.uniform(0, np.log(Q), 4000))
    r = np.exp(rng.uniform(-1, 1, 4000)) * np.sqrt(t)
    s = t / r
    h = 1e-5
    # second difference of N along (dr, 0), against s^2 dr^2 / Q^2
    def nval(rr, ss):
        tt = rr * ss
        return np.sqrt(tt / Q) * (1 - tt * tt / (128 * Q * Q))
    d2 = -(nval(r * (1 + h), s) - 2 * nval(r, s) + nval(r * (1 - h), s)) / (h * r) ** 2
    ratio = d2 / (s * s / (Q * Q))
    print(f"empirical -d2N/(s^2/Q^2) over domain: min {ratio.min():.4f} "
          f"(scales like sqrt(rs/Q)), max {ratio.max():.4f}")
    assert (d2 > 0).all()


@pytest.mark.parametrize("r, s", [(10.0, 10.0), (0.5, 0.5), (0.05, 30.0)],
                         ids=["rs>Q", "rs<1", "r<eps"])
def test_single_point_checks_refuse_points_outside_the_eps_domain(r, s):
    # no margin, and no CertificationError, for a point the checks do not cover
    V = bs.StatePoint(x=[1.0, 0.2], y=[0.4, 0.8], r=r, s=s)
    dV = bs.Perturbation(dx=[1.0, 0.0], dy=[0.0, 1.0], dr=0.1, ds=-0.1)
    assert not bm.domain_check(V, CFG).in_DQ_eps
    for check in (lambda: ct.check_hessian_lower(V, dV, CFG),
                  lambda: ct.check_partial_xx_bound(V, [1.0, 0.0], CFG),
                  lambda: ct.check_partial_yy_bound(V, [0.0, 1.0], CFG),
                  lambda: ct.extract_tau(V, CFG)):
        with pytest.raises(bs.DomainError, match="D_Q\\^eps"):
            check()


def test_cut_adjacent_point_is_skip_marker_not_failure():
    r, s = 1.3, 1.4
    k = bs.eval_K(r, s, CFG.Q)
    V = bs.StatePoint(x=[0.8 * k / s, 0.0], y=[0.8, 0.0], r=r, s=s)
    dV = bs.Perturbation(dx=[1.0, 0.0], dy=[1.0, 0.0], dr=0.0, ds=0.0)
    assert ct.check_hessian_lower(V, dV, CFG) is None
    assert ct.check_partial_xx_bound(V, [1.0, 0.0], CFG) is None
    with pytest.raises(bs.DomainError):
        ct.extract_tau(V, CFG)


def test_failed_checks_propagate_into_report_not_exception():
    # an infeasible coefficient draft must surface in the report, which is
    # still produced in full
    bad = bs.BellmanConfig(Q=16.0, c1=0.5, c2=0.05, c3=0.05, c7=600.0)
    spec = ct.SampleSpec(count=300, seed=71)
    rep = ct.run_certification(bad, spec)
    assert not rep.overall_pass
    assert "coefficient" in rep.note
    assert len(rep.checks) == 5
    assert "overall_pass false" in ct.report_to_text(rep)


def test_certification_across_dimensions():
    # the vector dimension only enters through |x|, |y|; d = 1 and d = 3 runs
    # must certify exactly like d = 2
    for dim in (1, 3):
        cfg = bs.BellmanConfig(Q=16.0, dim=dim)
        spec = ct.SampleSpec(count=1500, seed=73 + dim)
        rep = ct.run_certification(cfg, spec)
        assert rep.overall_pass, f"dim={dim}"
