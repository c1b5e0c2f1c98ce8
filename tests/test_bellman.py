import numpy as np
import pytest

import bellsub as bs
from bellsub import bellman as bm, estimates as est
from bellsub.bellman import (bellman_value, evaluate_batch, hessian_quadratic_form,
                             profile_value)
from bellsub.certify import _sample_arrays


CFG = bs.BellmanConfig(Q=4.0)


def _points(cfg, n, seed=0):
    return _sample_arrays(cfg, np.random.default_rng(seed), n)


# ---------------------------------------------------------------------------
# scalar building blocks
# ---------------------------------------------------------------------------

def test_k_n_worked_values():
    assert bs.eval_K(2.0, 2.0, 4.0) == pytest.approx(7.0 / 8.0, abs=1e-15)
    assert bs.eval_N(2.0, 2.0, 4.0) == pytest.approx(127.0 / 128.0, abs=1e-15)
    assert bs.eval_K(1.0, 1.0, 4.0) == pytest.approx(15.0 / 32.0, abs=1e-15)
    assert bs.eval_N(1.0, 1.0, 1.0) == pytest.approx(127.0 / 128.0, abs=1e-15)


def test_k_n_domain_error():
    with pytest.raises(bs.DomainError):
        bs.eval_K(0.5, 1.0, 4.0)
    with pytest.raises(bs.DomainError):
        bs.eval_N(3.0, 3.0, 4.0)


def test_k_n_range_and_denominator_bound():
    rng = np.random.default_rng(0)
    for Q in (1.5, 4.0, 64.0):
        t = np.exp(rng.uniform(0, np.log(Q), 2000))
        r = np.sqrt(t)
        k = np.array([bs.eval_K(ri, ri, Q) for ri in r])
        n = np.array([bs.eval_N(ri, ri, Q) for ri in r])
        assert (0 <= k).all() and (k < np.sqrt(t / Q) + 1e-15).all() and (k < 1).all()
        assert (0 <= n).all() and (n < np.sqrt(t / Q) + 1e-15).all() and (n < 1).all()
        assert (t - k * k > t * (1 - 1 / Q)).all()


def test_m_exact_value_and_positivity():
    assert bs.eval_M(1.0, 1.0, 1.0) == pytest.approx(1.0 - 128.0 / 255.0, abs=1e-15)
    rng = np.random.default_rng(1)
    for Q in (2.0, 16.0):
        t = np.exp(rng.uniform(0, np.log(Q), 10000))
        r = np.exp(rng.uniform(-1, 1, 10000)) * np.sqrt(t)
        s = t / r
        m = np.array([bs.eval_M(ri, si, Q) for ri, si in zip(r, s)])
        assert (m >= 0).all() and (m <= r).all()


def test_domain_check_cases():
    cfg = bs.BellmanConfig(Q=4.0, eps=0.1, ell=0.05)
    f = bs.domain_check(bs.StatePoint(x=[1.0], y=[1.0], r=1.0, s=1.0), cfg)
    assert (f.in_DQ, f.in_DQ_eps, f.in_DQ_eps_ell) == (True, True, True)
    f = bs.domain_check(bs.StatePoint(x=[1.0], y=[1.0], r=0.5, s=1.0), cfg)
    assert not f.in_DQ
    f = bs.domain_check(bs.StatePoint(x=[0.01], y=[1.0], r=1.0, s=2.0), cfg)
    assert f.in_DQ_eps and not f.in_DQ_eps_ell
    with pytest.raises(bs.InvalidInputError):
        bs.StatePoint(x=[np.nan], y=[1.0], r=1.0, s=1.0)


# One point on each face of D_Q^{eps,ell} at Q = 16, eps = 0.1, ell = 0.05,
# as (a, b, r, s) and the coordinate pushed off the face, down or up.  The
# face r = eps meets D_Q only at its corner s = 1/eps, rs = 1.
FACES = {
    "rs=1": ((1.0, 1.0, 2.0, 0.5), 3, True),
    "rs=Q": ((1.0, 1.0, 2.0, 8.0), 3, False),
    "r=eps": ((1.0, 1.0, 0.1, 10.0), 2, True),
    "s=eps": ((1.0, 1.0, 10.0, 0.1), 3, True),
    "r=1/eps": ((1.0, 1.0, 10.0, 0.5), 2, False),
    "s=1/eps": ((1.0, 1.0, 0.5, 10.0), 3, False),
    "|x|=ell": ((0.05, 1.0, 1.0, 1.0), 0, True),
    "|y|=ell": ((1.0, 0.05, 1.0, 1.0), 1, True),
}


def _accepts(call):
    try:
        call()
    except bs.DomainError:
        return False
    return True


@pytest.mark.parametrize("face", FACES)
def test_entry_points_agree_on_each_face(face):
    # one ulp off a face lies in the slack band, which every entry point
    # takes; 1e-6 off it lies beyond, which every entry point refuses
    cfg = bs.BellmanConfig(Q=16.0, eps=0.1, ell=0.05)
    point, moved, down = FACES[face]
    kind = face.split("=")[0]
    flag = {"rs": "in_DQ", "r": "in_DQ_eps", "s": "in_DQ_eps"}.get(kind, "in_DQ_eps_ell")
    for step, inside in (("ulp", True), (1e-6, False)):
        v = list(point)
        v[moved] = (np.nextafter(v[moved], 0.0 if down else np.inf) if step == "ulp"
                    else v[moved] * (1.0 - step if down else 1.0 + step))
        a, b, r, s = v
        V = bs.StatePoint(x=[a], y=[b], r=r, s=s)
        verdicts = {
            "domain_check": getattr(bs.domain_check(V, cfg), flag),
            "telescope": _accepts(lambda: est._check_states(
                *(np.array([c]) for c in v), cfg, anchor=cfg.ell, level=0)),
        }
        if kind in ("rs", "r", "s"):
            verdicts["evaluate_point"] = _accepts(lambda: bm.evaluate_point(V, cfg))
        if kind == "rs":
            verdicts["eval_K"] = _accepts(lambda: bs.eval_K(r, s, cfg.Q))
            if inside:      # no clamp: K is the batch path's K(rs)
                assert bs.eval_K(r, s, cfg.Q) == bm.kn_of_t(r * s, cfg.Q)[0][0]
                assert bs.eval_N(r, s, cfg.Q) == bm.kn_of_t(r * s, cfg.Q)[1][0]
        assert verdicts == dict.fromkeys(verdicts, inside), step


def test_b1_values():
    assert bs.eval_B1(bs.StatePoint(x=[1.0], y=[1.0], r=1.0, s=1.0)) == 2.0
    assert bs.eval_B1(bs.StatePoint(x=[0.0, 0.0], y=[0.0, 0.0], r=2.0, s=3.0)) == 0.0
    assert bs.eval_B1(bs.StatePoint(x=[3.0, 4.0], y=[0.0, 0.0], r=5.0, s=1.0)) == 5.0


def test_b2_b3_special_cases_and_bounds():
    cfg = CFG
    V = bs.StatePoint(x=[0.0, 0.0], y=[1.0, 2.0], r=1.5, s=2.0)
    assert bs.eval_B2(V, cfg) == pytest.approx((V.y @ V.y) / V.s, rel=1e-14)
    x, y, r, s = _points(cfg, 3000, seed=5)
    for i in range(3000):
        V = bs.StatePoint(x=x[i], y=y[i], r=r[i], s=s[i])
        b1 = bs.eval_B1(V)
        assert 0.0 <= bs.eval_B2(V, cfg) <= b1 + 1e-12 * b1
        assert 0.0 <= bs.eval_B3(V, cfg) <= b1 + 1e-12 * b1


# ---------------------------------------------------------------------------
# H4 and regions
# ---------------------------------------------------------------------------

def test_classify_region_cases():
    assert bs.classify_region([1.0], [1.0], 2.0, 2.0, 0.5).tag == "R1"
    assert bs.classify_region([0.0], [1.0], 1.0, 1.0, 0.5).tag == "R2"
    assert bs.classify_region([1.0], [0.0], 1.0, 1.0, 0.5).tag == "R3"
    # on the cut: |x|s = |y|K
    assert bs.classify_region([0.5], [1.0], 1.0, 1.0, 0.5).tag == "CUT"
    with pytest.raises(bs.DomainError):
        bs.classify_region([1.0], [1.0], 1.0, 1.0, 5.0)


def test_h4_branch_values():
    # K = 0 collapses to B1
    assert bs.eval_H4([1.0], [1.0], 1.0, 1.0, 0.0) == pytest.approx(2.0, abs=1e-14)
    # R3: |y|r - |x|K <= 0 and |x|s - |y|K > 0  ->  <x,x>/r
    assert bs.eval_H4([2.0], [0.1], 1.0, 4.0, 0.9) == pytest.approx(4.0, rel=1e-14)
    # R2 symmetric
    assert bs.eval_H4([0.1], [2.0], 4.0, 1.0, 0.9) == pytest.approx(4.0, rel=1e-14)
    with pytest.raises(bs.DomainError):
        bs.eval_H4([1.0], [1.0], 1.0, 1.0, 1.0)


from oracles import brute_force_h4


def test_h4_matches_brute_force_supremum():
    rng = np.random.default_rng(7)
    cfg = bs.BellmanConfig(Q=16.0)
    x, y, r, s = _points(cfg, 2000, seed=11)
    a = np.linalg.norm(x, axis=1)
    b = np.linalg.norm(y, axis=1)
    k = np.array([bs.eval_K(r[i], s[i], cfg.Q) for i in range(2000)])
    want = brute_force_h4(a, b, r, s, k)
    regions = set()
    for i in range(2000):
        got = bs.eval_H4(x[i], y[i], r[i], s[i], k[i])
        assert got == pytest.approx(want[i], rel=1e-6)
        regions.add(bs.classify_region(x[i], y[i], r[i], s[i], k[i]).tag)
    assert {"R1", "R2", "R3"} <= regions


def test_b4_to_b7_identities():
    cfg = CFG
    V0 = bs.StatePoint(x=[0.0, 0.0], y=[0.0, 0.0], r=1.0, s=2.0)
    assert bs.eval_B4(V0, cfg) == 0.0
    assert bs.eval_B5(V0, cfg) == 0.0
    assert bs.eval_B6(V0, cfg) == 0.0
    assert bs.eval_B7(V0, cfg) == 0.0
    x, y, r, s = _points(cfg, 2000, seed=13)
    for i in range(0, 2000, 7):
        V = bs.StatePoint(x=x[i], y=y[i], r=r[i], s=s[i])
        b7 = bs.eval_B7(V, cfg)
        parts = bs.eval_B4(V, cfg) + bs.eval_B5(V, cfg) + bs.eval_B6(V, cfg)
        assert b7 == parts  # definitional identity, exact
        assert 0.0 <= bs.eval_B5(V, cfg) <= bs.eval_B1(V) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# the combined function
# ---------------------------------------------------------------------------

def test_eval_b_size_bound_and_positivity():
    cfg = bs.BellmanConfig(Q=16.0)
    x, y, r, s = _points(cfg, 10000, seed=17)
    a = np.linalg.norm(x, axis=1)
    b = np.linalg.norm(y, axis=1)
    vals = profile_value(a, b, r, s, cfg)
    bound = cfg.size_constant * (a * a / r + b * b / s)
    assert (vals >= 0).all()
    assert (vals <= bound).all()


def test_eval_b_gradient_matches_finite_differences():
    cfg = bs.BellmanConfig(Q=16.0)
    x, y, r, s = _points(cfg, 200, seed=19)
    checked = 0
    for i in range(200):
        V = bs.StatePoint(x=x[i], y=y[i], r=r[i], s=s[i])
        k = bs.eval_K(V.r, V.s, cfg.Q)
        if bs.classify_region(V.x, V.y, V.r, V.s, k).tag == "CUT":
            continue
        res = bs.eval_B(V, cfg)
        g_fd = np.zeros(6)
        for j in range(2):
            h = 1e-5 * max(abs(V.x[j]), 1.0)
            e = np.zeros(2); e[j] = h
            g_fd[j] = (bellman_value(V.x + e, V.y, V.r, V.s, cfg)
                       - bellman_value(V.x - e, V.y, V.r, V.s, cfg)) / (2 * h)
            h = 1e-5 * max(abs(V.y[j]), 1.0)
            e = np.zeros(2); e[j] = h
            g_fd[2 + j] = (bellman_value(V.x, V.y + e, V.r, V.s, cfg)
                           - bellman_value(V.x, V.y - e, V.r, V.s, cfg)) / (2 * h)
        hr, hs = 1e-5 * V.r, 1e-5 * V.s
        g_fd[4] = (bellman_value(V.x, V.y, V.r + hr, V.s, cfg)
                   - bellman_value(V.x, V.y, V.r - hr, V.s, cfg)) / (2 * hr)
        g_fd[5] = (bellman_value(V.x, V.y, V.r, V.s + hs, cfg)
                   - bellman_value(V.x, V.y, V.r, V.s - hs, cfg)) / (2 * hs)
        scale = np.maximum(np.abs(g_fd), 1.0)
        assert (np.abs(res.gradient - g_fd) / scale < 1e-4).all()
        checked += 1
    assert checked > 100


def test_eval_b_at_ell_corner_is_smooth():
    cfg = bs.BellmanConfig(Q=16.0)
    V = bs.StatePoint(x=[cfg.ell, 0.0], y=[cfg.ell, 0.0], r=1.0, s=1.5)
    res = bs.eval_B(V, cfg)
    assert np.isfinite(res.gradient).all()
    assert np.isfinite(res.value)


def test_eval_b_rotation_invariance():
    cfg = bs.BellmanConfig(Q=16.0)
    rng = np.random.default_rng(23)
    x, y, r, s = _points(cfg, 50, seed=29)
    for i in range(50):
        th1, th2 = rng.uniform(0, 2 * np.pi, 2)
        U = np.array([[np.cos(th1), -np.sin(th1)], [np.sin(th1), np.cos(th1)]])
        W = np.array([[np.cos(th2), -np.sin(th2)], [np.sin(th2), np.cos(th2)]])
        v0 = bellman_value(x[i], y[i], r[i], s[i], cfg)
        v1 = bellman_value(U @ x[i], W @ y[i], r[i], s[i], cfg)
        assert v1 == pytest.approx(v0, rel=1e-12)


def test_hessian_form_parity():
    cfg = bs.BellmanConfig(Q=16.0)
    rng = np.random.default_rng(31)
    V = bs.StatePoint(x=[1.0, 0.3], y=[0.4, 0.8], r=1.2, s=1.7)
    res = bs.eval_B(V, cfg)
    for _ in range(20):
        d = rng.standard_normal(6)
        plus = res.hessian_form(bs.Perturbation(dx=d[:2], dy=d[2:4], dr=d[4], ds=d[5]))
        minus = res.hessian_form(bs.Perturbation(dx=-d[:2], dy=-d[2:4], dr=-d[4], ds=-d[5]))
        assert plus == minus


def test_eval_b_cut_band_form_is_its_branch_form():
    cfg = bs.BellmanConfig(Q=4.0)
    # on and within 5e-9 (relative) of the |x|s = |y|K cut
    r, s = 1.3, 1.4
    k = bs.eval_K(r, s, cfg.Q)
    dV = bs.Perturbation(dx=[0.1, 0.0], dy=[0.1, 0.0], dr=0.0, ds=0.0)
    forms = {}
    for offset in (-5e-9, 0.0, 5e-9):
        a = 0.8 * k / s * (1.0 + offset)
        res = bs.eval_B(bs.StatePoint(x=[a, 0.0], y=[0.8, 0.0], r=r, s=s), cfg)
        assert res.region.tag == "CUT"
        batch = evaluate_batch(np.array([a]), np.array([0.8]), np.array([r]),
                               np.array([s]), cfg)
        unit = np.array([[1.0, 0.0]])
        exact = hessian_quadratic_form(batch, unit, unit, dV.dx[None, None, :],
                                       dV.dy[None, None, :], np.zeros((1, 1)),
                                       np.zeros((1, 1)))[0, 0]
        forms[offset] = res.hessian_form(dV)
        assert forms[offset] == exact
        assert forms[offset] >= (2.0 / cfg.Q) * 0.1 * 0.1
    # a point on the cut takes the non-R1 branch, whose form is the smaller
    # by the PSD jump 2 grad q grad q^T / (s(t - K^2))
    assert forms[5e-9] > forms[0.0]


def test_eval_b_outside_domain_raises():
    cfg = bs.BellmanConfig(Q=4.0)
    with pytest.raises(bs.DomainError):
        bs.eval_B(bs.StatePoint(x=[1.0, 0.0], y=[1.0, 0.0], r=0.01, s=120.0), cfg)


def test_batch_region_and_value_match_pointwise_api():
    cfg = bs.BellmanConfig(Q=16.0)
    x, y, r, s = _points(cfg, 500, seed=37)
    a = np.linalg.norm(x, axis=1)
    b = np.linalg.norm(y, axis=1)
    batch = evaluate_batch(a, b, r, s, cfg)
    for i in range(0, 500, 11):
        V = bs.StatePoint(x=x[i], y=y[i], r=r[i], s=s[i])
        assert batch.value[i] == pytest.approx(bs.eval_B(V, cfg).value, rel=1e-13)


def test_b2_reduces_to_b1_x_part_as_m_vanishes():
    # M -> 0 along rs = 1 as Q grows; with y = 0, B2 tends to <x,x>/r
    V = bs.StatePoint(x=[2.0, 0.0], y=[0.0, 0.0], r=1.0, s=1.0)
    for Q, tol in ((1e6, 2e-3), (1e12, 2e-6)):
        cfg = bs.BellmanConfig(Q=Q)
        assert bs.eval_B2(V, cfg) == pytest.approx(4.0, rel=tol)
        assert bs.eval_M(V.r, V.s, Q) == pytest.approx(0.0, abs=2 * Q ** -0.5)


def test_hessian_form_at_zero_x_matches_finite_differences():
    # x = 0 lies in D_Q^eps (only the ell-domain excludes it); the tangential
    # coefficient must take its radial limit there instead of dividing by 0
    cfg = bs.BellmanConfig(Q=16.0)
    V = bs.StatePoint(x=[0.0, 0.0], y=[1.0, 0.0], r=2.0, s=3.0)
    res = bs.eval_B(V, cfg)
    dV = bs.Perturbation(dx=[0.3, 0.1], dy=[0.1, 0.0], dr=0.01, ds=0.0)
    got = res.hessian_form(dV)
    assert np.isfinite(got)
    h = 1e-4
    fp = bellman_value(V.x + h * dV.dx, V.y + h * dV.dy, V.r + h * dV.dr,
                       V.s + h * dV.ds, cfg)
    fm = bellman_value(V.x - h * dV.dx, V.y - h * dV.dy, V.r - h * dV.dr,
                       V.s - h * dV.ds, cfg)
    fd = (fp - 2 * res.value + fm) / h ** 2
    assert got == pytest.approx(fd, rel=1e-5)
