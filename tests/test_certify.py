import dataclasses

import numpy as np
import pytest

import bellsub as bs
from bellsub import bellman as bm
from bellsub import certify as ct
from bellsub.bellman import (evaluate_batch, hessian_quadratic_form, one_leg_margin,
                             partial_xx_form, partial_yy_form)
from bellsub.errors import ConfigError
from bellsub.weights import row_norm
from oracles import allocating_best_shift, direction_bank, split_directions

CFG = bs.BellmanConfig(Q=16.0)


def sample(cfg, count, seed, pairs=False):
    """The plan's (x, y, r, s) arrays, its batches joined; with `pairs`, the
    one-leg partners' arrays."""
    parts = [ct._sample_arrays(cfg, seeds[pairs], size)
             for size, *seeds in ct._batches(ct.SampleSpec(count=count, seed=seed))]
    return [np.concatenate(v) for v in zip(*parts)]


def points(cfg, count, seed):
    """The plan's samples as StatePoints."""
    x, y, r, s = sample(cfg, count, seed)
    return [bs.StatePoint(x=x[i], y=y[i], r=r[i], s=s[i]) for i in range(count)]


def batch_of(cfg, count, seed):
    """`evaluate_batch` on the plan's samples, with their unit directions."""
    x, y, r, s = sample(cfg, count, seed)
    a, b = np.linalg.norm(x, axis=1), np.linalg.norm(y, axis=1)
    return evaluate_batch(a, b, r, s, cfg), x / a[:, None], y / b[:, None]


def tau_at(V, cfg):
    """The in-band tau of `_ellipse` at V and its feasibility."""
    batch, _, _ = bm.evaluate_point(V, cfg)
    _, tau, feas = ct._ellipse(*ct._radial(batch, len(V.x)), cfg)
    return tau[0], feas[0]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_domain_deterministic():
    p1, p2 = sample(CFG, 1, seed=7), sample(CFG, 1, seed=7)
    assert all(np.array_equal(u, v) for u, v in zip(p1, p2))


@pytest.mark.parametrize("Q", (1.0, 16.0))
def test_sampled_points_satisfy_domain_flags(Q):
    cfg = bs.BellmanConfig(Q=Q)
    x, y, r, s = sample(cfg, 10_000, seed=3)
    assert bm.domain_masks(np.linalg.norm(x, axis=1), np.linalg.norm(y, axis=1),
                           r, s, cfg)[2].all()


def test_single_point_checks_take_the_q1_samples_below_rs_1():
    # at Q = 1 every sample has rs = 1, and about one in seven float
    # products r*s reads 1 - 2^-53; those points lie in the slack band of
    # D_Q, which the batch path certifies and the single-point entry takes
    cfg = bs.BellmanConfig(Q=1.0)
    below = [V for V in points(cfg, 2000, seed=1) if V.r * V.s < 1.0]
    assert below and all(V.r * V.s == 1.0 - 2.0 ** -53 for V in below)
    res = [bs.eval_B(V, cfg) for V in below]
    V, rv = next((V, rv) for V, rv in zip(below, res) if rv.region != "CUT")
    dV = bs.Perturbation(dx=[1.0, 0.0], dy=[0.0, 1.0], dr=0.1, ds=-0.1)
    assert tau_at(V, cfg)[0] > 0.0
    assert np.isfinite(rv.hessian_form(dV))


def test_log_rs_uniformity_chi2():
    from scipy.stats import chi2
    count = 100_000
    _, _, r, s = sample(CFG, count, seed=11)
    k = 40
    # rs <= min(Q, eps^-2) = Q here
    counts, _ = np.histogram(np.log(r * s), bins=k, range=(0.0, np.log(CFG.Q)))
    expect = count / k
    stat = float(((counts - expect) ** 2 / expect).sum())
    assert stat < chi2.ppf(0.999, k - 1)


def test_sample_plan_takes_its_domain_from_the_config():
    # a plan holds no Q, eps, ell or dim of its own that could contradict
    # the config it is run under
    assert [f.name for f in dataclasses.fields(ct.SampleSpec)] == \
        ["count", "seed"]
    cfg = bs.BellmanConfig(Q=2.0, dim=1)
    x, y, r, s = sample(cfg, 200, seed=1)
    assert x.shape == y.shape == (200, 1)
    assert bm.domain_masks(np.abs(x[:, 0]), np.abs(y[:, 0]), r, s, cfg)[2].all()


def test_sample_spec_validation():
    with pytest.raises(ConfigError):
        bs.BellmanConfig(Q=0.5)
    with pytest.raises(ConfigError):
        ct.SampleSpec(count=-1, seed=0)


# ---------------------------------------------------------------------------
# directional forms, one-leg margins and tau at sample points
# ---------------------------------------------------------------------------

def test_hessian_margin_zero_direction():
    V = points(CFG, 1, seed=5)[0]
    zero = bs.Perturbation(dx=[0.0, 0.0], dy=[0.0, 0.0], dr=0.0, ds=0.0)
    assert bs.eval_B(V, CFG).hessian_form(zero) == 0.0


def test_hessian_margin_reduces_to_convexity_when_dy_zero():
    # with dy = 0 the Hessian margin is the form itself, at every non-cut point
    rng = np.random.default_rng(13)
    batch, xhat, yhat = batch_of(CFG, 50, seed=17)
    d = rng.standard_normal((50, 4))      # per point: dx, then dr, ds
    dx = d[:, None, :2]
    form = hessian_quadratic_form(batch, xhat, yhat, dx, np.zeros_like(dx),
                                  d[:, 2:3], d[:, 3:4])[:, 0]
    assert (form[~batch.cut] >= -1e-10).all()


def test_one_leg_same_point_and_taylor_consistency():
    pts = points(CFG, 40, seed=19)
    rng = np.random.default_rng(23)
    for V in pts[:10]:
        batch, xhat, yhat = bm.evaluate_point(V, CFG)
        margin, _, _ = one_leg_margin(batch.g, batch.value, xhat, yhat, batch.value,
                                      np.zeros_like(xhat), np.zeros_like(yhat), 0.0, 0.0,
                                      CFG.Q)
        assert margin[0] == 0.0
    checked = 0
    for V in pts:
        res = bs.eval_B(V, CFG)
        if res.region == "CUT":
            continue
        d = rng.standard_normal(6)
        d /= np.linalg.norm(d)
        dV = bs.Perturbation(dx=d[:2], dy=d[2:4], dr=d[4], ds=d[5])
        h = res.hessian_form(dV)
        for t in (1e-2, 1e-3):
            W = bs.StatePoint(x=V.x + t * d[:2], y=V.y + t * d[2:4],
                              r=V.r + t * d[4], s=V.s + t * d[5])
            if not bm.domain_masks(W.xnorm, W.ynorm, W.r, W.s, CFG)[1]:
                continue
            gap = (bs.eval_B(W, CFG).value - res.value
                   - res.gradient @ np.concatenate([t * d[:2], t * d[2:4], [t * d[4]], [t * d[5]]]))
            # second-order Taylor: gap / t^2 -> h/2
            if t == 1e-3 and abs(h) > 1e-6:
                assert gap / t ** 2 == pytest.approx(h / 2.0, rel=1e-2, abs=1e-5)
                checked += 1
    assert checked >= 10


def test_partial_bounds_single_point():
    V = points(CFG, 1, seed=29)[0]
    batch, xhat, yhat = bm.evaluate_point(V, CFG)
    cap = CFG.dxx_constant / CFG.eps
    rng = np.random.default_rng(31)
    dx = np.concatenate([np.zeros((1, 2)), rng.standard_normal((20, 2))])[None]
    sq = np.sum(dx * dx, axis=-1)
    assert cap * sq[0, 0] - partial_xx_form(batch, xhat, dx)[0, 0] >= 0.0
    assert (cap * sq - partial_xx_form(batch, xhat, dx) >= -1e-8).all()
    assert (cap * sq - partial_yy_form(batch, yhat, dx) >= -1e-8).all()
    # the B1 block alone is the textbook case: d2x = 2|dx|^2 / r <= 2/eps
    assert 2.0 / V.r <= 2.0 / CFG.eps + 1e-12


def test_extract_tau_in_band_and_feasible():
    batch, _, _ = batch_of(CFG, 30, seed=37)
    _, tau, feas = ct._ellipse(*ct._radial(batch, CFG.dim), CFG)
    keep = ~batch.cut
    lo = ct.KAPPA_LO * CFG.eps / CFG.Q
    hi = ct.KAPPA_HI * CFG.Q / CFG.eps
    assert ((lo <= tau[keep]) & (tau[keep] <= hi)).all()
    assert (feas[keep] >= -ct.TAU_FEAS_TOL).all()


def test_tau_scaling_recorded_not_asserted(capsys):
    # x -> lam x, y -> y / lam at fixed (r, s); behavior is reported only
    V = points(CFG, 1, seed=43)[0]
    rows = []
    for lam in (0.5, 1.0, 2.0):
        W = bs.StatePoint(x=lam * V.x, y=V.y / lam, r=V.r, s=V.s)
        tau, feas = tau_at(W, CFG)
        ok = bs.eval_B(W, CFG).region != "CUT" and feas >= -ct.TAU_FEAS_TOL
        rows.append((lam, float(tau) if ok else float("nan")))
    print("tau scaling under x->lam x, y->y/lam:", rows)
    assert len(rows) == 3


# ---------------------------------------------------------------------------
# the exact ellipse certificate against the sampled direction bank
# ---------------------------------------------------------------------------

def _bank(Q, dim, n=2048, seed=1):
    cfg = bs.BellmanConfig(Q=Q, dim=dim)
    x, y, r, s = sample(cfg, n, seed)
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
    # a radial Hessian with a negative least eigenvalue (built as in the
    # round-off test below, less 0.5 v v^T) has no feasible tau, and
    # `_witness` names a unit direction attaining the negative feasibility;
    # the form is read through a batch that carries h, with tangential
    # curvatures phi_a/a = tx and phi_b/b = ty at a = b = 1
    n, Q = 64, 16.0
    rng = np.random.default_rng(79)
    g = rng.normal(size=(n, 4, 4))
    v = rng.normal(size=(n, 4))
    v /= np.linalg.norm(v, axis=1)[:, None]
    h = 0.3 * np.eye(4) + 0.01 * (g + np.swapaxes(g, 1, 2)) - 0.5 * v[:, :, None] * v[:, None, :]
    assert (np.linalg.eigvalsh(h)[:, 0] < 0.0).all()
    tan = (np.full(n, 0.3), np.full(n, 0.3))
    _, tau, feas = ct._ellipse(h, tan, bs.BellmanConfig(Q=Q))
    assert (feas < -ct.TAU_FEAS_TOL).all()
    xhat, yhat = (w / np.linalg.norm(w, axis=1)[:, None] for w in rng.normal(size=(2, n, 2)))
    ones, zeros = np.ones(n), np.zeros(n)
    batch = bm.BatchEval(a=ones, b=ones, value=zeros,
                         g=np.stack([tan[0], tan[1], zeros, zeros]), h=np.moveaxis(h, 0, -1),
                         region=np.ones(n, dtype=int), cut=np.zeros(n, dtype=bool))
    witness, _ = ct._witness(h, tan, xhat, yhat, tau, Q)
    assert np.allclose(np.linalg.norm(witness, axis=1), 1.0)
    value = _ellipse_form(batch, xhat, yhat, witness[:, None, :], tau, Q)[:, 0]
    assert value == pytest.approx(feas, rel=1e-9)
    assert (value < 0.0).all()


@pytest.mark.parametrize("dim", (1, 2, 3))
@pytest.mark.parametrize("Q", (1.0, 1.5, 2.0, 10.0, 16.0, 256.0, 1e4))
def test_ellipse_is_the_two_level_oracle_bit_for_bit(Q, dim):
    # the two levels: the bound is `_ellipse_level` at u, the feasibility Q
    # times it at tau/Q, every row at full batch, whichever rows it reuses
    cfg = bs.BellmanConfig(Q=Q, dim=dim)
    for seed in (1, 2, 3):
        batch, _, _ = batch_of(cfg, 1024, seed)
        h, tan = ct._radial(batch, dim)
        u = ct._best_shift(h, tan, Q)
        assert np.array_equal(u, allocating_best_shift(h, tan, Q), equal_nan=True)
        lower, tau, feas = ct._ellipse(h, tan, cfg)
        band = (ct.KAPPA_LO * cfg.eps / Q, ct.KAPPA_HI * Q / cfg.eps)
        for got, want in ((lower, ct._ellipse_level(h, tan, u, Q)),
                          (tau, np.clip(Q * u, *band)),
                          (feas, Q * ct._ellipse_level(h, tan, tau / Q, Q))):
            assert np.array_equal(got, want, equal_nan=True)
        if Q <= 2.0:     # the rows evaluated twice are there to compare
            assert (tau != Q * u).any()


def test_ellipse_evaluates_again_where_tau_over_q_rounds_off_u(monkeypatch):
    # (10 u)/10 is not u for about one u in seven, though no u the bisection
    # returned on the samples so far was one of them; entries of h the size
    # of u let that last bit reach the level
    cfg = bs.BellmanConfig(Q=10.0)
    rng = np.random.default_rng(0)
    g = rng.normal(size=(512, 4, 4))
    h = 0.3 * np.eye(4) + 0.01 * (g + np.swapaxes(g, 1, 2))
    tan = (np.full(512, 0.3), np.full(512, 0.3))
    u = rng.uniform(0.05, 0.2, 512)      # tau = 10 u in the band
    assert ((10.0 * u) / 10.0 != u).sum() > 20
    monkeypatch.setattr(ct, "_best_shift", lambda h, tan, Q: u)
    lower, tau, feas = ct._ellipse(h, tan, cfg)
    assert not np.array_equal(lower * 10.0, feas)     # the level moved
    assert np.array_equal(lower, ct._ellipse_level(h, tan, u, 10.0))
    assert np.array_equal(feas, 10.0 * ct._ellipse_level(h, tan, tau / 10.0, 10.0))


def test_eigvalsh_of_a_batch_is_eigvalsh_of_each_matrix():
    # `_ellipse` reuses the level at u for every row whose tau/Q is u, so
    # a row's eigenvalues must not depend on the rows batched with it
    batch, _, _ = batch_of(bs.BellmanConfig(Q=2.0), 2048, seed=5)
    h, _ = ct._radial(batch, 2)
    full = np.linalg.eigvalsh(h)
    rng = np.random.default_rng(0)
    for rows in (np.arange(2048)[::-1], rng.permutation(2048)[:777],
                 np.flatnonzero(rng.random(2048) < 0.1), [3], [2047, 0, 1]):
        assert np.array_equal(np.linalg.eigvalsh(h[rows]), full[rows])


@pytest.mark.parametrize("Q", (2.0, 16.0))
def test_ellipse_evaluates_the_level_again_only_on_clipped_rows(Q, monkeypatch):
    cfg = bs.BellmanConfig(Q=Q)
    batch, _, _ = batch_of(cfg, 2048, seed=1)
    h, tan = ct._radial(batch, 2)
    clipped = ct._ellipse(h, tan, cfg)[1] != Q * ct._best_shift(h, tan, Q)   # Q * u / Q is u
    if Q == 16.0:       # a batch of unclipped rows alone
        keep = ~clipped
        h, tan, clipped = h[keep], (tan[0][keep], tan[1][keep]), clipped[keep]
    calls = []
    level = ct._ellipse_level

    def counted(h, tan, u, Q):
        calls.append(h)
        return level(h, tan, u, Q)

    monkeypatch.setattr(ct, "_ellipse_level", counted)
    ct._ellipse(h, tan, cfg)
    assert calls[0] is h
    if Q == 16.0:
        assert len(calls) == 1 and len(h) > 2000
    else:
        assert len(calls) == 2 and clipped.sum() > 100
        assert np.array_equal(calls[1], h[clipped])


# ---------------------------------------------------------------------------
# C1 across cuts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("Q", [1.0, 2.0, 16.0, 256.0, 1e4])
def test_c1_across_cuts_linear_decay(Q):
    cfg = bs.BellmanConfig(Q=Q)
    rep = ct.check_c1_across_cuts(cfg, seed=0)
    assert rep == ct.check_c1_across_cuts(cfg, seed=53)    # draws nothing
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
    cut = batch_of(CFG, spec.count, spec.seed)[0].cut
    assert [row[0] for row in rows] == list(np.flatnonzero(~cut))


def test_tau_sweep_draws_once_per_batch(monkeypatch):
    # tau_sweep reads no one-leg or size margin, so it draws no partners;
    # certify draws points and partners for each batch
    calls = []
    draw = ct._sample_arrays
    monkeypatch.setattr(ct, "_sample_arrays", lambda *args: calls.append(args) or draw(*args))
    spec = ct.SampleSpec(count=2 * ct.BATCH + 5, seed=1)
    ct.tau_sweep(CFG, spec)
    assert len(calls) == len(ct._batches(spec)) == 3
    ct.run_certification(CFG, spec)
    assert len(calls) == 3 + 2 * 3


@pytest.mark.parametrize("dim", (1, 2, 3, 7))
@pytest.mark.parametrize("Q", (1.0, 2.0, 16.0, 256.0))
def test_check_replays_a_batch_row_alone_bit_for_bit(Q, dim):
    # _check draws nothing and a row depends on its own point and partner
    # alone, so a (seed, index) key replays any reported sample exactly
    cfg = bs.BellmanConfig(Q=Q, dim=dim)
    (size, pt_seed, pair_seed), = ct._batches(ct.SampleSpec(count=ct.BATCH, seed=5))
    points, pairs = ct._sample_arrays(cfg, pt_seed, size), ct._sample_arrays(cfg, pair_seed, size)
    batch = ct._check(cfg, points, pairs)
    for i in range(0, size, 7):
        row = ct._check(cfg, *([v[i:i + 1] for v in arrays] for arrays in (points, pairs)))
        assert row.keys() == batch.keys()
        for name, got in row.items():
            want = batch[name][i:i + 1]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), (i, name)


@pytest.mark.parametrize("cut_tolerance", (None, 2e-2), ids=("cut_1e-8", "cut_2e-2"))
@pytest.mark.parametrize("dim", (1, 2, 3))
@pytest.mark.parametrize("Q", (1.0, 2.0, 16.0, 256.0))
def test_record_merge_is_the_triple_merge_byte_for_byte(Q, dim, cut_tolerance, monkeypatch):
    # each check's triple (least margin, worst point, skipped) is read off
    # the rows of one `_check` record of the whole plan, the C^2 checks
    # skipping the cut points of `evaluate_batch`; 5000 samples end in a
    # part batch, and the widened cut rule skips many points, which no
    # golden does
    if cut_tolerance is not None:
        monkeypatch.setattr(bm, "CUT_TOLERANCE", cut_tolerance)
    cfg = bs.BellmanConfig(Q=Q, dim=dim)
    spec = ct.SampleSpec(count=5000, seed=3)
    x, y, r, s = points = sample(cfg, spec.count, spec.seed)
    record = ct._check(cfg, points, sample(cfg, spec.count, spec.seed, pairs=True))
    away = ~evaluate_batch(row_norm(x), row_norm(y), r, s, cfg, order=1).cut
    got = ct.run_certification(cfg, spec)
    assert [c.name for c in got.checks] == ["hessian_lower", "one_leg", "size_bound",
                                            "dxx_bound", "dyy_bound"]
    for check in got.checks:
        c2 = check.name in ("hessian_lower", "dxx_bound", "dyy_bound")
        rows = away if c2 else slice(None)
        margins, i = record[check.name][rows], np.argmin(record[check.name][rows])
        floor = 0.0 if check.name == "size_bound" else bm.MARGIN_TOL
        assert (check.samples, check.skipped) == (len(margins), spec.count - len(margins))
        assert check.min_margin == margins[i] and check.passed == (margins[i] >= -floor)
        assert check.worst_point == ct._fmt_point(record["point"][rows][i])
    ts, tau, feas = got.tau_stats, record["tau"][away], record["feas"][away]
    assert (ts.min, ts.max, ts.min_feasibility) == (tau.min(), tau.max(), feas.min())
    assert ts.within_bounds == ((tau >= ts.band_lo) & (tau <= ts.band_hi)).all()
    again = ct.run_certification(cfg, spec, 2)
    assert ct.report_to_text(again) == ct.report_to_text(got)
    assert ct.report_to_csv(again) == ct.report_to_csv(got)
    if cut_tolerance is not None:
        assert got.checks[0].skipped > spec.count // 50


def test_slices_merge_to_the_batch_by_batch_report_byte_for_byte(monkeypatch):
    # two slices, the second ending in a part batch: the library checks a
    # slice of batches per `_check` call, and with SLICE = 1 each batch alone
    spec = ct.SampleSpec(count=ct.SLICE * ct.BATCH + 1000, seed=7)
    reports = [ct.run_certification(CFG, spec, jobs) for jobs in (1, 2, 3)]
    monkeypatch.setattr(ct, "SLICE", 1)
    reports.append(ct.run_certification(CFG, spec))
    texts = {(ct.report_to_text(rep), ct.report_to_csv(rep)) for rep in reports}
    assert len(texts) == 1


def test_a_one_slice_plan_builds_no_thread_pool(monkeypatch):
    built = []
    pool = ct.ThreadPoolExecutor
    monkeypatch.setattr(ct, "ThreadPoolExecutor",
                        lambda *args, **kwargs: built.append(args) or pool(*args, **kwargs))
    ct.run_certification(CFG, ct.SampleSpec(count=ct.SLICE * ct.BATCH, seed=2), jobs=2)
    assert built == []
    ct.run_certification(CFG, ct.SampleSpec(count=ct.SLICE * ct.BATCH + 1, seed=2), jobs=2)
    assert len(built) == 1


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
    # no value, and no margin, for a point the checks do not cover
    V = bs.StatePoint(x=[1.0, 0.2], y=[0.4, 0.8], r=r, s=s)
    assert not bm.domain_masks(V.xnorm, V.ynorm, r, s, CFG)[1]
    for entry in (lambda: bm.evaluate_point(V, CFG), lambda: bs.eval_B(V, CFG)):
        with pytest.raises(bs.DomainError, match="D_Q\\^eps"):
            entry()


def test_cut_adjacent_point_is_skip_marker_not_failure():
    # a point on the cut |x|s = |y|K is marked as a cut, which the C^2
    # checks skip; it is still evaluated
    r, s = 1.3, 1.4
    k = bm.kn_of_t(r * s, CFG.Q)[0][0]
    V = bs.StatePoint(x=[0.8 * k / s, 0.0], y=[0.8, 0.0], r=r, s=s)
    batch, _, _ = bm.evaluate_point(V, CFG)
    assert batch.cut[0] and np.isfinite(batch.h).all()
    assert bs.eval_B(V, CFG).region == "CUT"


def test_failed_checks_propagate_into_report_not_exception(monkeypatch):
    # a sampled check that fails must surface in the report, which is still
    # produced in full: here an unreachable floor fails the size bound
    monkeypatch.setattr(ct, "CHECKS", tuple(
        (name, -np.inf if name == "size_bound" else floor, skips)
        for name, floor, skips in ct.CHECKS))
    rep = ct.run_certification(CFG, ct.SampleSpec(count=300, seed=71))
    assert not rep.overall_pass
    assert [c.passed for c in rep.checks] == [True, True, False, True, True]
    assert rep.tau_stats is not None and rep.tau_stats.passed
    assert "overall_pass false" in ct.report_to_text(rep)


def test_certification_across_dimensions():
    # the vector dimension only enters through |x|, |y|; d = 1 and d = 3 runs
    # must certify exactly like d = 2
    for dim in (1, 3):
        cfg = bs.BellmanConfig(Q=16.0, dim=dim)
        spec = ct.SampleSpec(count=1500, seed=73 + dim)
        rep = ct.run_certification(cfg, spec)
        assert rep.overall_pass, f"dim={dim}"
