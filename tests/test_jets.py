import numpy as np

from jet_oracle import Jet


def target(a, b, r, s):
    # exercises mul, div, sqrt, reciprocal, affine combinations
    t = r * s
    return a * a / (2.0 * r - 1.0 / (s * (np.sqrt(t) + 1.0))) + b * b * np.sqrt(t) / s


def target_jet(ja, jb, jr, js):
    t = jr * js
    return ja * ja / (2.0 * jr - (js * (t.sqrt() + 1.0)).reciprocal()) + jb * jb * t.sqrt() / js


def test_jet_first_and_second_partials_match_finite_differences():
    rng = np.random.default_rng(1)
    a, b, r, s = rng.uniform(0.5, 3.0, size=(4, 7))
    ja, jb, jr, js = Jet.variables(a, b, r, s)
    jet = target_jet(ja, jb, jr, js)
    assert np.allclose(jet.val, target(a, b, r, s), rtol=1e-14)

    h = 1e-5
    args = [a, b, r, s]
    for i in range(4):
        ap = [v.copy() for v in args]
        am = [v.copy() for v in args]
        ap[i] = ap[i] + h
        am[i] = am[i] - h
        fd = (target(*ap) - target(*am)) / (2 * h)
        assert np.allclose(jet.g[i], fd, rtol=1e-7, atol=1e-9)
        for j in range(i, 4):
            pp = [v.copy() for v in args]; pp[i] = pp[i] + h; pp[j] = pp[j] + h
            pm = [v.copy() for v in args]; pm[i] = pm[i] + h; pm[j] = pm[j] - h
            mp = [v.copy() for v in args]; mp[i] = mp[i] - h; mp[j] = mp[j] + h
            mm = [v.copy() for v in args]; mm[i] = mm[i] - h; mm[j] = mm[j] - h
            fd2 = (target(*pp) - target(*pm) - target(*mp) + target(*mm)) / (4 * h * h)
            # atol covers pure FD cancellation noise (~|f| eps / h^2)
            assert np.allclose(jet.h[i, j], fd2, rtol=5e-5, atol=1e-4)


def test_jet_hessian_is_symmetric():
    rng = np.random.default_rng(2)
    a, b, r, s = rng.uniform(0.5, 3.0, size=(4, 5))
    jet = target_jet(*Jet.variables(a, b, r, s))
    assert np.array_equal(jet.h, np.swapaxes(jet.h, 0, 1))


def test_where_selects_componentwise():
    a, b, r, s = Jet.variables(np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                               np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    picked = Jet.where(np.array([True, False]), a * a, b * 3.0)
    assert np.allclose(picked.val, [1.0, 3.0])
    assert np.allclose(picked.g[0], [2.0, 0.0])
    assert np.allclose(picked.g[1], [0.0, 3.0])
