import tracemalloc

import numpy as np
import pytest

import bellsub as bs
from bellsub import bellman as bm, estimates as est
from bellsub.bellman import evaluate_batch, hessian_quadratic_form, kn_of_t, profile_value
from bellsub.certify import _sample_arrays
from bellsub.weights import row_norm
from oracles import brute_force_h4


CFG = bs.BellmanConfig(Q=4.0)


def _points(cfg, n, seed=0):
    return _sample_arrays(cfg, np.random.default_rng(seed), n)


def _norms(x, y):
    return np.linalg.norm(x, axis=-1), np.linalg.norm(y, axis=-1)


def _value(x, y, r, s, cfg):
    """B at rows x, y (n, d) of vectors and r, s (n,), through `profile_value`."""
    return profile_value(*_norms(x, y), r, s, cfg)


def _block(i, a, b, r, s, Q):
    """The block B_i alone at radii a, b: `_fill` with unit weights."""
    k, n = kn_of_t(r * s, Q)
    return bm._fill(a, b, r, s, k, n, bm._unit_weights(i))


def _region(a, b, r, s, k):
    """H4's branch at a given K: 1, 2, 3 for R1, R2, R3, and 0 on a cut."""
    q1, q2, (in_r1, in_r2, _) = bm._branches(a, b, r, s, k)
    return np.where(bm._near_cut(q1, q2, a, b), 0, np.where(in_r1, 1, np.where(in_r2, 2, 3)))


# ---------------------------------------------------------------------------
# K, N, M and the domain
# ---------------------------------------------------------------------------

def test_k_n_worked_values():
    assert kn_of_t(2.0 * 2.0, 4.0)[0][0] == pytest.approx(7.0 / 8.0, abs=1e-15)
    assert kn_of_t(2.0 * 2.0, 4.0)[1][0] == pytest.approx(127.0 / 128.0, abs=1e-15)
    assert kn_of_t(1.0 * 1.0, 4.0)[0][0] == pytest.approx(15.0 / 32.0, abs=1e-15)
    assert kn_of_t(1.0 * 1.0, 1.0)[1][0] == pytest.approx(127.0 / 128.0, abs=1e-15)


def test_k_n_domain_error():
    # (r, s) outside D_Q: rs < 1 and rs > Q; the single-point entry refuses them
    cfg = bs.BellmanConfig(Q=4.0)
    for r, s in ((0.5, 1.0), (3.0, 3.0)):
        assert not bm.domain_masks(0.0, 0.0, r, s, cfg)[0]
        with pytest.raises(bs.DomainError):
            bm.evaluate_point(bs.StatePoint(x=[1.0], y=[1.0], r=r, s=s), cfg)


def test_k_n_range_and_denominator_bound():
    rng = np.random.default_rng(0)
    for Q in (1.5, 4.0, 64.0):
        t = np.exp(rng.uniform(0, np.log(Q), 2000))
        r = np.sqrt(t)
        (k,), (n,) = kn_of_t(r * r, Q)
        assert (0 <= k).all() and (k < np.sqrt(t / Q) + 1e-15).all() and (k < 1).all()
        assert (0 <= n).all() and (n < np.sqrt(t / Q) + 1e-15).all() and (n < 1).all()
        assert (t - k * k > t * (1 - 1 / Q)).all()


def _m(r, s, Q):
    """M = r - 1/(s(N+1)), the shrunk x leg of B2."""
    return r - 1.0 / (s * (kn_of_t(r * s, Q)[1][0] + 1.0))


def test_m_exact_value_and_positivity():
    assert _m(1.0, 1.0, 1.0) == pytest.approx(1.0 - 128.0 / 255.0, abs=1e-15)
    rng = np.random.default_rng(1)
    for Q in (2.0, 16.0):
        t = np.exp(rng.uniform(0, np.log(Q), 10000))
        r = np.exp(rng.uniform(-1, 1, 10000)) * np.sqrt(t)
        s = t / r
        m = _m(r, s, Q)
        assert (m >= 0).all() and (m <= r).all()


def test_domain_check_cases():
    cfg = bs.BellmanConfig(Q=4.0, eps=0.1, ell=0.05)
    assert [bool(f) for f in bm.domain_masks(1.0, 1.0, 1.0, 1.0, cfg)] == [True] * 3
    assert not bm.domain_masks(1.0, 1.0, 0.5, 1.0, cfg)[0]
    _, in_eps, in_ell = bm.domain_masks(0.01, 1.0, 1.0, 2.0, cfg)
    assert in_eps and not in_ell
    with pytest.raises(bs.InvalidInputError):
        bs.StatePoint(x=[np.nan], y=[1.0], r=1.0, s=1.0)


def _form_at(x=(1.0, 0.5), r=1.0, dx=(0.1, 0.0)):
    """The Hessian form at V = (x, (0.5, 0.2), r, 2) in the direction
    (dx, (0, 0.1), 0.01, 0): x, r or dx of a bad shape is refused."""
    res = bs.eval_B(bs.StatePoint(x=x, y=[0.5, 0.2], r=r, s=2.0), bs.BellmanConfig())
    return res.hessian_form(bs.Perturbation(dx=dx, dy=[0.0, 0.1], dr=0.01, ds=0.0))


@pytest.mark.parametrize("bad, message", [
    ({"x": [[1.0, 0.5]]}, r"x must be a non-empty 1-D vector, got shape \(1, 2\)"),
    ({"r": [1.0, 2.0]}, r"r must be a scalar, got shape \(2,\)"),
    ({"x": []}, r"x must be a non-empty 1-D vector, got shape \(0,\)"),
    ({"dx": [0.1, 0.0, 0.0]}, r"dx \(3,\) and dy \(2,\) do not match x \(2,\) and y \(2,\)"),
    ({"dx": [[0.1, 0.0]]}, r"dx must be a non-empty 1-D vector, got shape \(1, 2\)"),
], ids=["x_row", "r_vector", "x_empty", "dx_long", "dx_row"])
def test_bad_shapes_are_invalid_input(bad, message):
    assert np.isfinite(_form_at())
    with pytest.raises(bs.InvalidInputError, match=message):
        _form_at(**bad)


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
    mask = {"rs": 0, "r": 1, "s": 1}.get(kind, 2)
    for step, inside in (("ulp", True), (1e-6, False)):
        v = list(point)
        v[moved] = (np.nextafter(v[moved], 0.0 if down else np.inf) if step == "ulp"
                    else v[moved] * (1.0 - step if down else 1.0 + step))
        a, b, r, s = v
        V = bs.StatePoint(x=[a], y=[b], r=r, s=s)
        verdicts = {
            "domain_masks": bool(bm.domain_masks(a, b, r, s, cfg)[mask]),
            "telescope": _accepts(lambda: est._check_states(
                *(np.array([c]) for c in v), cfg, anchor=cfg.ell, level=0)),
        }
        if kind in ("rs", "r", "s"):
            verdicts["evaluate_point"] = _accepts(lambda: bm.evaluate_point(V, cfg))
            verdicts["eval_B"] = _accepts(lambda: bs.eval_B(V, cfg))
        assert verdicts == dict.fromkeys(verdicts, inside), step


# ---------------------------------------------------------------------------
# the blocks, H4 and its regions
# ---------------------------------------------------------------------------

def test_b1_values():
    a = np.array([1.0, 0.0, 5.0])
    b = np.array([1.0, 0.0, 0.0])
    r, s = np.array([1.0, 2.0, 5.0]), np.array([1.0, 3.0, 1.0])
    assert _block(1, a, b, r, s, 16.0).tolist() == [2.0, 0.0, 5.0]


def test_b2_b3_special_cases_and_bounds():
    cfg = CFG
    # x = 0, y = (1, 2): B2 is <y,y>/s
    assert _block(2, 0.0, np.sqrt(5.0), 1.5, 2.0, cfg.Q) == pytest.approx(5.0 / 2.0, rel=1e-14)
    x, y, r, s = _points(cfg, 3000, seed=5)
    a, b = _norms(x, y)
    b1 = _block(1, a, b, r, s, cfg.Q)
    for i in (2, 3):
        bi = _block(i, a, b, r, s, cfg.Q)
        assert (0.0 <= bi).all() and (bi <= b1 + 1e-12 * b1).all()


def test_classify_region_cases():
    a, b, r, s, k = (np.array(c) for c in zip(
        (1.0, 1.0, 2.0, 2.0, 0.5), (0.0, 1.0, 1.0, 1.0, 0.5),
        (1.0, 0.0, 1.0, 1.0, 0.5), (0.5, 1.0, 1.0, 1.0, 0.5)))   # on the cut |x|s = |y|K
    assert _region(a, b, r, s, k).tolist() == [1, 2, 3, 0]


def test_h4_branch_values():
    # K = 0 collapses to B1
    assert bm.h4_value(1.0, 1.0, 1.0, 1.0, 0.0) == pytest.approx(2.0, abs=1e-14)
    # R3: |y|r - |x|K <= 0 and |x|s - |y|K > 0  ->  <x,x>/r
    assert bm.h4_value(2.0, 0.1, 1.0, 4.0, 0.9) == pytest.approx(4.0, rel=1e-14)
    # R2 symmetric
    assert bm.h4_value(0.1, 2.0, 4.0, 1.0, 0.9) == pytest.approx(4.0, rel=1e-14)


def test_h4_matches_brute_force_supremum():
    cfg = bs.BellmanConfig(Q=16.0)
    x, y, r, s = _points(cfg, 2000, seed=11)
    a, b = _norms(x, y)
    k = kn_of_t(r * s, cfg.Q)[0][0]
    want = brute_force_h4(a, b, r, s, k)
    assert bm.h4_value(a, b, r, s, k) == pytest.approx(want, rel=1e-6)
    batch = bm.b4_batch(a, b, r, s, cfg)
    assert {1, 2, 3} <= set(batch.region[~batch.cut].tolist())


def test_b4_to_b7_identities():
    cfg = CFG
    zero = [_block(i, 0.0, 0.0, 1.0, 2.0, cfg.Q) for i in (4, 5, 6)]
    assert zero == [0.0] * 3
    x, y, r, s = (v[::7] for v in _points(cfg, 2000, seed=13))
    a, b = _norms(x, y)
    parts = sum(_block(i, a, b, r, s, cfg.Q) for i in (4, 5, 6))
    k, n = kn_of_t(r * s, cfg.Q)
    b7 = bm._fill(a, b, r, s, k, n, (0.0, 0.0, 0.0, 1.0, 1.0, 1.0))
    assert b7 == pytest.approx(parts, rel=1e-14)
    b5 = _block(5, a, b, r, s, cfg.Q)
    assert (0.0 <= b5).all() and (b5 <= _block(1, a, b, r, s, cfg.Q) * (1 + 1e-12)).all()


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
    # central differences in each of the six coordinates (x, y, r, s), all
    # points at once
    v = np.concatenate([x, y, r[:, None], s[:, None]], axis=1)
    step = 1e-5 * np.concatenate([np.maximum(np.abs(v[:, :4]), 1.0), v[:, 4:]], axis=1)
    g_fd = np.empty_like(v)
    for j in range(6):
        e = np.zeros_like(v)
        e[:, j] = step[:, j]
        hi, lo = v + e, v - e
        g_fd[:, j] = (_value(hi[:, :2], hi[:, 2:4], hi[:, 4], hi[:, 5], cfg)
                      - _value(lo[:, :2], lo[:, 2:4], lo[:, 4], lo[:, 5], cfg)) / (2 * step[:, j])
    checked = 0
    for i in range(200):
        res = bs.eval_B(bs.StatePoint(x=x[i], y=y[i], r=r[i], s=s[i]), cfg)
        if res.region == "CUT":
            continue
        scale = np.maximum(np.abs(g_fd[i]), 1.0)
        assert (np.abs(res.gradient - g_fd[i]) / scale < 1e-4).all()
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
    th1, th2 = rng.uniform(0, 2 * np.pi, (50, 2)).T

    def rotate(th, v):
        c, s_ = np.cos(th), np.sin(th)
        return np.stack([c * v[:, 0] - s_ * v[:, 1], s_ * v[:, 0] + c * v[:, 1]], axis=1)

    v0 = _value(x, y, r, s, cfg)
    v1 = _value(rotate(th1, x), rotate(th2, y), r, s, cfg)
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
    k = kn_of_t(r * s, cfg.Q)[0][0]
    dV = bs.Perturbation(dx=[0.1, 0.0], dy=[0.1, 0.0], dr=0.0, ds=0.0)
    forms = {}
    for offset in (-5e-9, 0.0, 5e-9):
        a = 0.8 * k / s * (1.0 + offset)
        res = bs.eval_B(bs.StatePoint(x=[a, 0.0], y=[0.8, 0.0], r=r, s=s), cfg)
        assert res.region == "CUT"
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


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 9])
def test_batch_region_and_value_match_pointwise_api(dim):
    # certify's rows measure |x|, |y| with row_norm; eval_B must see the same
    # radii, so its value and r/s partials are the batch row's bits
    cfg = bs.BellmanConfig(Q=16.0, dim=dim)
    x, y, r, s = _points(cfg, 500, seed=37)
    batch = evaluate_batch(row_norm(x), row_norm(y), r, s, cfg)
    for i in range(500):
        res = bs.eval_B(bs.StatePoint(x=x[i], y=y[i], r=r[i], s=s[i]), cfg)
        assert res.value == batch.value[i]
        assert list(res.gradient[-2:]) == [batch.g[2, i], batch.g[3, i]]


def test_b2_reduces_to_b1_x_part_as_m_vanishes():
    # M -> 0 along rs = 1 as Q grows; with y = 0, B2 tends to <x,x>/r
    # at x = (2, 0), y = 0, r = s = 1
    for Q, tol in ((1e6, 2e-3), (1e12, 2e-6)):
        assert _block(2, 2.0, 0.0, 1.0, 1.0, Q) == pytest.approx(4.0, rel=tol)
        assert _m(1.0, 1.0, Q) == pytest.approx(0.0, abs=2 * Q ** -0.5)


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
    fp, fm = (_value((V.x + t * dV.dx)[None], (V.y + t * dV.dy)[None],
                     np.array([V.r + t * dV.dr]), np.array([V.s + t * dV.ds]), cfg)[0]
              for t in (h, -h))
    fd = (fp - 2 * res.value + fm) / h ** 2
    assert got == pytest.approx(fd, rel=1e-5)


def test_profile_value_peak_memory_is_one_chunk_and_its_output():
    # the leaf values of a depth-16 telescope: evaluated chunk by chunk, the
    # 2^16 points need their output and what one chunk of `_CHUNK` takes alone
    cfg = bs.BellmanConfig(Q=16.0)
    x, y, r, s = _points(cfg, 2 ** 16, seed=41)
    a, b = _norms(x, y)
    peaks = []
    for n in (bm._CHUNK, 2 ** 16):
        tracemalloc.start()
        try:
            profile_value(a[:n], b[:n], r[:n], s[:n], cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    chunk_peak, peak = peaks
    assert peak <= chunk_peak + 8 * 2 ** 16
