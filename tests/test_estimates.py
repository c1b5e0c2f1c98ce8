import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import bellsub as bs
from bellsub import estimates as est
from bellsub import martingales as mg
from bellsub import weights as wt
from bellsub.bellman import evaluate_batch, profile_value
from bellsub.errors import DomainError, SubordinationError
from oracles import random_dual_ratio, with_anchor


def make_pair(depth, dim, seed, rotate=False):
    rng = np.random.default_rng(seed)
    X = mg.random_martingale(mg.SimConfig(depth=depth, dim=dim), rng)
    if rotate:
        Y = mg.rotation_transform(X, rng)
    else:
        sig = [np.where(rng.standard_normal(2 ** k) > 0, 1.0, -1.0)
               for k in range(depth)]
        Y = mg.transform(X, sig, sigma0=1.0)
    return X, Y, rng


# ---------------------------------------------------------------------------
# bilinear estimate
# ---------------------------------------------------------------------------

def test_bilinear_zero_test_function():
    X, Y, rng = make_pair(5, 2, 0)
    Z = mg.DyadicMartingale.from_leaves(np.zeros((2 ** 5, 2)))
    w = wt.power_weight_family(-0.5, 5)
    res = est.verify_bilinear_estimate(X, Y, Z, w, 10.0)
    assert res["lhs"] == 0.0 and res["pass"]


def test_bilinear_unweighted_ratio_below_one():
    # with w = 1 the bound reduces to Cauchy-Schwarz across the bracket
    for seed in range(10):
        X, Y, rng = make_pair(6, 2, seed, rotate=seed % 2 == 0)
        Z = mg.random_martingale(mg.SimConfig(depth=6, dim=2), rng)
        w = wt.WeightTree(np.ones(2 ** 6))
        res = est.verify_bilinear_estimate(X, Y, Z, w, 1.0)
        assert res["ratio"] <= 1.0 + 1e-12


def test_bilinear_requires_subordination():
    X, Y, rng = make_pair(4, 2, 3)
    Z = mg.random_martingale(mg.SimConfig(depth=4, dim=2), rng)
    w = wt.power_weight_family(-0.5, 4)
    tripled = mg.DyadicMartingale([3.0 * lev for lev in X.levels])
    with pytest.raises(SubordinationError):
        est.verify_bilinear_estimate(X, tripled, Z, w, 10.0)


def test_violation_below_the_root_is_named_by_every_check():
    # Y copies X's increments but doubles those of node 1's children at
    # level 3: subordinate at the root, first violated at node 2 of level 3
    X = mg.random_martingale(mg.SimConfig(depth=4, dim=2), np.random.default_rng(3))
    incs = list(wt.pair_increments(X.levels))
    incs[2][1] *= 2.0
    Y = mg.DyadicMartingale(wt.levels_from_increments(X.levels[0], incs))
    assert mg.check_subordination(X, Y) == (3, 2)
    Z = mg.random_martingale(mg.SimConfig(depth=4, dim=2), np.random.default_rng(4))
    w = wt.power_weight_family(-0.5, 4)
    with pytest.raises(SubordinationError, match=r"violation at \(3, 2\)"):
        est.verify_bilinear_estimate(X, Y, Z, w, 10.0)
    with pytest.raises(SubordinationError, match=r"violation at \(3, 2\)"):
        est.verify_main_theorem(X, Y, w, 10.0)


def test_bilinear_power_weight_instances():
    for delta in (-0.5, 0.0, 1.0):
        w = wt.power_weight_family(delta, 8)
        for seed in range(20):
            X, Y, rng = make_pair(8, 2, 31 * seed + 7, rotate=seed % 2 == 0)
            Z = mg.random_martingale(mg.SimConfig(depth=8, dim=2), rng)
            res = est.verify_bilinear_estimate(X, Y, Z, w, 10.0)
            assert res["pass"], f"delta={delta} seed={seed} ratio={res['ratio']}"


# ---------------------------------------------------------------------------
# telescope
# ---------------------------------------------------------------------------

def tele_setup(depth=6, seed=0, rotate=False, Q=16.0, dim=2):
    cfg = bs.BellmanConfig(Q=Q)
    X, Z, rng = make_pair(depth, dim, seed, rotate=rotate)
    raw = wt.power_weight_family(-0.5, depth)
    w = wt.truncate_two_sided(raw, 1.0 / cfg.eps)
    return cfg, X, Z, w


def test_telescope_constant_martingales_trivial():
    cfg = bs.BellmanConfig(Q=16.0)
    X = mg.DyadicMartingale.from_leaves(np.tile([1.0, 0.5], (2 ** 5, 1)))
    Z = mg.DyadicMartingale.from_leaves(np.tile([0.3, -0.2], (2 ** 5, 1)))
    w = wt.WeightTree(np.ones(2 ** 5))
    res = est.bellman_telescope(X, Z, w, cfg)
    assert res["pass"]
    assert res["sum_increments"] == 0.0
    assert res["min_margin"] == pytest.approx(0.0, abs=1e-12)


def test_telescope_passes_on_random_and_rotation_instances():
    for seed in range(8):
        cfg, X, Z, w = tele_setup(depth=6, seed=seed, rotate=seed % 2 == 0)
        res = est.bellman_telescope(X, Z, w, cfg)
        assert res["pass"]
        assert res["min_margin"] >= -1e-8
        assert res["linear_term_max"] <= 1e-10
        assert res["sum_increments"] <= res["expectation_gap"] + 1e-8
        assert res["bellman_terminal"] <= res["bellman_bound"] + 1e-8


def test_telescope_exhaustive_dissipation_agreement():
    """Depth <= 4: the aggregate lhs equals the brute-force per-leaf path sum."""
    cfg, X, Z, w = tele_setup(depth=4, seed=5)
    res = est.bellman_telescope(X, Z, w, cfg)
    Xa, Za = with_anchor(X, cfg.ell), with_anchor(Z, cfg.ell)
    total = 0.0
    n = X.depth
    for leaf in range(2 ** n):
        path = 0.0
        for k in range(1, n + 1):
            node = leaf >> (n - k)
            dx = Xa.levels[k][node] - Xa.levels[k - 1][node >> 1]
            dz = Za.levels[k][node] - Za.levels[k - 1][node >> 1]
            path += np.linalg.norm(dx) * np.linalg.norm(dz)
        total += path
    brute = (2.0 / cfg.Q) * total / 2 ** n
    assert res["sum_increments"] == pytest.approx(brute, rel=1e-12)


def _telescope_by_level(X, Z, w, cfg):
    """Per-step margins, dissipation, expectation gap and terminal mean with
    B evaluated afresh at the parent and at the child of every level, on
    real anchored rows and with numpy's own reductions."""
    Xa, Za = with_anchor(X, cfg.ell), with_anchor(Z, cfg.ell)
    rep = lambda arr: np.repeat(arr, 2, axis=0)

    def states(k):
        x, y = Xa.levels[k], Za.levels[k]
        return (x, y, np.linalg.norm(x, axis=1), np.linalg.norm(y, axis=1),
                w.node_avg_u[k], w.node_avg_w[k])

    margins_min, dissipation = [], 0.0
    for k in range(X.depth):
        xp, yp, ap, bp, rp, sp = states(k)
        xc, yc, ac, bc, rc, sc = states(k + 1)
        parent_val = profile_value(ap, bp, rp, sp, cfg)
        child_val = profile_value(ac, bc, rc, sc, cfg)
        g = evaluate_batch(ap, bp, rp, sp, cfg).g
        dx, dy = xc - rep(xp), yc - rep(yp)
        lin = (rep(g[0]) * np.sum(rep(xp / ap[:, None]) * dx, axis=1)
               + rep(g[1]) * np.sum(rep(yp / bp[:, None]) * dy, axis=1)
               + rep(g[2]) * (rc - rep(rp)) + rep(g[3]) * (sc - rep(sp)))
        jump = np.linalg.norm(dx, axis=1) * np.linalg.norm(dy, axis=1)
        margins = child_val - rep(parent_val) - lin - (2.0 / cfg.Q) * jump
        margins_min.append(float(margins.min()))
        dissipation += (2.0 / cfg.Q) * float(jump.sum()) * 2.0 ** (-(k + 1))
    _, _, a0, b0, r0, s0 = states(0)
    root = float(profile_value(a0, b0, r0, s0, cfg)[0])
    _, _, an, bn, rn, sn = states(X.depth)
    terminal = float(np.mean(profile_value(an, bn, rn, sn, cfg)))
    return margins_min, dissipation, terminal - root, terminal


@pytest.mark.parametrize("depth", [1, 6, 12])
@pytest.mark.parametrize("rotate", [False, True], ids=["random", "rotation"])
def test_telescope_matches_per_level_recomputation(depth, rotate):
    _assert_matches_per_level(depth, rotate, dim=2, seed=40 + depth)


# dims 7 and 8 give anchored rows of 8 and 9 entries, which numpy sums pairwise
@pytest.mark.parametrize("dim", [1, 3, 7, 8])
@pytest.mark.parametrize("depth", [1, 6, 12])
@pytest.mark.parametrize("rotate", [False, True], ids=["random", "rotation"])
def test_telescope_matches_per_level_recomputation_at_dim(depth, rotate, dim):
    _assert_matches_per_level(depth, rotate, dim, seed=40 + depth + 100 * dim)


def _assert_matches_per_level(depth, rotate, dim, seed):
    cfg, X, Z, w = tele_setup(depth=depth, seed=seed, rotate=rotate, dim=dim)
    res = est.bellman_telescope(X, Z, w, cfg)
    margins, dissipation, gap, terminal = _telescope_by_level(X, Z, w, cfg)
    assert res["per_step_margins"] == margins
    assert res["sum_increments"] == dissipation
    assert res["expectation_gap"] == gap
    assert res["bellman_terminal"] == terminal


@pytest.mark.parametrize("depth", [1, 6])
def test_telescope_evaluates_bellman_once_per_level(monkeypatch, depth):
    cfg, X, Z, w = tele_setup(depth=depth, seed=3)
    sizes = {"evaluate_batch": [], "profile_value": []}
    live = []     # weak references to every BatchEval handed out so far

    def counted_batch(a, *rest, order=2):
        # the level about to be evaluated is at most the second one alive
        assert sum(ref() is not None for ref in live) <= 1
        # one-leg convexity reads B and dB, never d^2 B
        assert order == 1
        sizes["evaluate_batch"].append(len(a))
        batch = evaluate_batch(a, *rest, order=order)
        assert batch.h is None
        live.append(weakref.ref(batch))
        return batch

    def counted_value(a, *rest):
        sizes["profile_value"].append(len(a))
        return profile_value(a, *rest)

    monkeypatch.setattr(est, "evaluate_batch", counted_batch)
    monkeypatch.setattr(est, "profile_value", counted_value)
    est.bellman_telescope(X, Z, w, cfg)
    assert sizes["evaluate_batch"] == [2 ** k for k in range(depth)]
    assert sizes["profile_value"] == [2 ** depth]


@pytest.mark.parametrize("dim", [1, 2, 7, 8])
def test_telescope_anchor_is_the_lead_of_every_state_norm(monkeypatch, dim):
    # one layout at every dim: the state norms read the d real columns of X
    # and Z with the anchor as `row_norm`'s lead, never an anchored copy
    cfg, X, Z, w = tele_setup(depth=5, seed=dim, dim=dim)
    calls = []

    def recorded(v, lead=None):
        calls.append((v.shape[-1], lead))
        return wt.row_norm(v, lead)

    monkeypatch.setattr(est, "row_norm", recorded)
    for anchor in (None, 0.15):
        calls.clear()
        res = est.bellman_telescope(X, Z, w, cfg, anchor=anchor)
        assert calls == [(X.dim, res["anchor"])] * (2 * (X.depth + 1))


def test_telescope_peak_memory_at_depth_14():
    # At depth n = 14 the peak lies in the order-1 evaluation of level n-1,
    # whose 2^13 points are one chunk.  Besides what that call takes alone
    # (measured here on the same level), the telescope then holds, in floats
    # of 8 bytes: level n-1's norms, 2 * 2^(n-1); level n-2's batch (value,
    # a, b, four gradient rows, region), 8 * 2^(n-2), and its 2^(n-2) cut
    # flags of one byte.  The last step's margins, linear terms, jumps,
    # conditional means and increments are freed before level n-1 is
    # evaluated.  64 KiB covers the loop's Python objects.  Holding that
    # step's arrays again adds (3 + 2d + 2) * 2^(n-2) + 2^(n-3) floats, a
    # Hessian of level n-2 16 * 2^(n-2), and anchored copies of X and Z
    # about 4 (d + 1) * 2^n.
    n, d = 14, 2
    cfg, X, Z, w = tele_setup(depth=n, seed=5, rotate=True, dim=d)
    held = 2 * 2 ** (n - 1) + 8 * 2 ** (n - 2)
    a, b = wt.row_norm(X.levels[n - 1], cfg.ell), wt.row_norm(Z.levels[n - 1], cfg.ell)
    r, s = w.node_avg_u[n - 1], w.node_avg_w[n - 1]
    peaks = []
    for run in (lambda: evaluate_batch(a, b, r, s, cfg, order=1),
                lambda: est.bellman_telescope(X, Z, w, cfg)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    level_peak, peak = peaks
    assert peak <= level_peak + 8 * held + 2 ** (n - 2) + 64 * 1024


def test_telescope_rejects_untruncated_weight():
    cfg = bs.BellmanConfig(Q=16.0)
    X, Z, rng = make_pair(6, 2, 9)
    raw = wt.power_weight_family(-0.9, 6)   # leaves far outside [eps, 1/eps]
    with pytest.raises(DomainError, match="not truncated into"):
        est.bellman_telescope(X, Z, raw, cfg)


def test_telescope_rejects_small_anchor():
    cfg, X, Z, w = tele_setup(depth=5, seed=11)
    with pytest.raises(DomainError) as err:
        est.bellman_telescope(X, Z, w, cfg, anchor=cfg.ell / 10)
    assert "anchor" in str(err.value) or "ell" in str(err.value)


def test_telescope_decides_the_anchor_at_its_least_state_norm():
    # the anchor gets the slack of every face: one ulp below ell passes
    cfg, X, Z, w = tele_setup(depth=4, seed=11)
    assert est.bellman_telescope(X, Z, w, cfg, anchor=np.nextafter(cfg.ell, 0.0))["pass"]
    # the states see a only through a*a: -ell is the anchor ell reflected
    plus, minus = (est.bellman_telescope(X, Z, w, cfg, anchor=a) for a in (cfg.ell, -cfg.ell))
    assert minus.pop("anchor") == -plus.pop("anchor") and minus == plus
    # at ell = 1e-160, a*a is subnormal and a zero row's norm sqrt(a*a) falls
    # below ell: refused at entry, where a level's check once refused it
    cfg = bs.BellmanConfig(ell=1e-160)
    X = mg.DyadicMartingale.from_leaves(np.zeros((2 ** 4, 2)))
    with pytest.raises(DomainError, match="anchor"):
        est.bellman_telescope(X, X, w, cfg)


def test_telescope_refuses_states_whose_size_bound_overflows():
    # leaves near 1e160 and the anchor 5e198 square past float64: the telescope
    # printed RuntimeWarnings and read min_margin nan; 2e151 ell stays finite.
    # At depth 6, 1.1e153 ell keeps a finite size bound, but B overflows on
    # the way: the telescope read min_margin -inf and failed
    cfg, X, Z, w = tele_setup(depth=4, seed=11)
    big = mg.DyadicMartingale.from_leaves(X.leaves * 1e160)
    _, X6, Z6, w6 = tele_setup(depth=6, seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows float64"):
            est.bellman_telescope(big, Z, w, cfg)
        with pytest.raises(DomainError, match="overflows float64"):
            est.bellman_telescope(X, Z, w, cfg, anchor=5e198)
        with pytest.raises(DomainError, match="overflows float64"):
            est.bellman_telescope(X6, Z6, w6, cfg, anchor=cfg.ell * 1.1e153)
        assert est.bellman_telescope(X, Z, w, cfg, anchor=cfg.ell * 2e151)["pass"]


@pytest.mark.parametrize("anchor", (np.nan, np.inf))
def test_telescope_rejects_a_non_finite_anchor(anchor):
    # nan slips past a plain `a < ell` test and reads min_margin 0, sum inf
    cfg, X, Z, w = tele_setup(depth=4, seed=11)
    with pytest.raises(DomainError, match="anchor"):
        est.bellman_telescope(X, Z, w, cfg, anchor=anchor)


@pytest.mark.parametrize("C_target", (-1.0, 0.0, np.nan, np.inf))
def test_estimates_reject_a_bad_target_constant(C_target):
    X, Y, rng = make_pair(4, 2, 3)
    Z = mg.random_martingale(mg.SimConfig(depth=4, dim=2), rng)
    w = wt.power_weight_family(-0.5, 4)
    with pytest.raises(DomainError, match="C_target"):
        est.verify_bilinear_estimate(X, Y, Z, w, C_target)
    with pytest.raises(DomainError, match="C_target"):
        est.verify_main_theorem(X, Y, w, C_target)


def test_telescope_q_must_dominate_characteristic():
    cfg = bs.BellmanConfig(Q=1.0001)
    X, Z, rng = make_pair(6, 2, 12)
    w = wt.truncate_two_sided(wt.power_weight_family(-0.5, 6), 1.0 / cfg.eps)
    with pytest.raises(DomainError, match="exceeds configured Q"):
        est.bellman_telescope(X, Z, w, cfg)
    # Q2[w] is the largest node product rs: a relative 1e-14 above Q it lies
    # in the slack band of D_Q, which the telescope takes at every level
    q2 = wt.a2_characteristic(w)
    assert est.bellman_telescope(X, Z, w, bs.BellmanConfig(Q=q2 * (1.0 - 1e-14)))["pass"]


def test_anchor_sensitivity_all_pass():
    cfg, X, Z, w = tele_setup(depth=6, seed=13)
    sens = {m: est.bellman_telescope(X, Z, w, cfg, anchor=cfg.ell * m) for m in (1.0, 2.0, 10.0)}
    assert all(r["pass"] for r in sens.values())
    # larger anchors inflate the additive 2 a^2 / eps term
    bounds = [sens[m]["bellman_bound"] for m in (1.0, 2.0, 10.0)]
    assert bounds[0] < bounds[1] < bounds[2]


# ---------------------------------------------------------------------------
# main theorem and projections
# ---------------------------------------------------------------------------

def test_main_theorem_unweighted_multiplier_isometry():
    X, Y, rng = make_pair(7, 2, 17)
    ones = wt.WeightTree(np.ones(2 ** 7))
    res = est.verify_main_theorem(X, Y, ones, 1.0, seed=1)
    assert res["ratio"] <= 1.0 + 1e-12


def test_main_theorem_self_pair_ratio():
    X, _, rng = make_pair(7, 2, 19)
    w = wt.power_weight_family(-0.5, 7)
    res = est.verify_main_theorem(X, X, w, 1.0, seed=2)
    q2 = wt.a2_characteristic(w)
    assert res["ratio"] == pytest.approx(1.0 / q2, rel=1e-12)
    assert res["pass"]


def test_main_theorem_duality_achieved():
    X, Y, rng = make_pair(8, 2, 23, rotate=True)
    w = wt.power_weight_family(-0.5, 8)
    res = est.verify_main_theorem(X, Y, w, 10.0, seed=3)
    assert res["duality_gap"] <= 1e-8 * max(1.0, res["lhs"])


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("rotate", [False, True], ids=["sign", "rotation"])
def test_main_theorem_dual_attained_at_extremal(dim, rotate):
    for seed in range(4):
        X, Y, rng = make_pair(8, dim, 50 * dim + seed, rotate=rotate)
        w = wt.power_weight_family(rng.uniform(-0.9, 0.9), 8)
        res = est.verify_main_theorem(X, Y, w, 10.0)
        assert res["dual_lhs"] == pytest.approx(res["lhs"], rel=1e-12, abs=0.0)
        searched = random_dual_ratio(Y.leaves, w.leaf_values, rng)
        assert searched <= res["dual_lhs"] * (1.0 + 1e-12)
