"""On each H4 cut the two branches meeting there differ by a square.

With t = rs and 0 <= K < sqrt(t), H4's branches are
R1 = (a^2 s - 2abK + b^2 r)/(t - K^2), R2 = b^2/s and R3 = a^2/r, and

    R1 - R2 = (as - bK)^2 / (s (t - K^2)),
    R1 - R3 = (br - aK)^2 / (r (t - K^2)).

So the value and the gradient of H4 are continuous across the cuts
as = bK and br = aK, exactly, and the Hessian jumps by the rank-one PSD term
2 grad(q) grad(q)^T / (s (t - K^2)) with q the cut function (r in place of s
on the other cut).  This is why `check_c1_across_cuts` needs no random
points: the mismatch at distance delta is linear in delta at every point.

With m = t - K^2 and [q]_- = max(-q, 0) the two identities give H4 without
branches, H4 = R1 - [q2]_-^2/(s m) - [q1]_-^2/(r m) with q1 = br - aK and
q2 = as - bK: at most one kink term is nonzero, since q1 <= 0 and q2 <= 0
together would give t <= K^2 for ab > 0.
"""

import numpy as np
import pytest

from bellsub.bellman import h4_value


def test_branch_differences_are_squares_of_the_cut_functions():
    sp = pytest.importorskip("sympy")
    a, b, r, s = sp.symbols("a b r s", positive=True)
    t = r * s
    K = sp.Function("K")(t)        # any K(t), as in B4 where K = K(rs)
    r1 = (a ** 2 * s - 2 * a * b * K + b ** 2 * r) / (t - K ** 2)
    variables = (a, b, r, s)
    for other, q, m in ((b ** 2 / s, a * s - b * K, s), (a ** 2 / r, b * r - a * K, r)):
        gap = r1 - other
        assert sp.cancel(gap - q ** 2 / (m * (t - K ** 2))) == 0
        # on the cut q = 0: equal values and gradients, a rank-one Hessian jump
        on_cut = {a: b * K / s} if m == s else {b: a * K / r}
        grad_q = sp.Matrix([sp.diff(q, v) for v in variables])
        jump = sp.hessian(gap, variables) - 2 * grad_q * grad_q.T / (m * (t - K ** 2))
        assert sp.cancel(gap.subs(on_cut)) == 0
        assert all(sp.cancel(sp.diff(gap, v).subs(on_cut)) == 0 for v in variables)
        assert sp.cancel(jump.subs(on_cut)) == sp.zeros(4, 4)


def _closed_form(a, b, r, s, K):
    """H4 as R1 less its two kink terms, and the cut functions q1, q2."""
    m = r * s - K * K
    q1, q2 = b * r - a * K, a * s - b * K
    r1 = (a * a * s - 2.0 * a * b * K + b * b * r) / m
    kink2, kink1 = np.maximum(-q2, 0.0) ** 2 / (s * m), np.maximum(-q1, 0.0) ** 2 / (r * m)
    return r1 - kink2 - kink1, q1, q2


def _random_points(rng, n):
    """a, b uniform on [0, 3], log r and log s on [-2, 2], K on [0, 0.999 sqrt(rs))."""
    a, b = rng.uniform(0.0, 3.0, (2, n))
    r, s = np.exp(rng.uniform(-2.0, 2.0, (2, n)))
    return a, b, r, s, rng.uniform(0.0, 0.999, n) * np.sqrt(r * s)


def _near_cuts(rng, n):
    """Points within a relative 1e-10 of the cut as = bK, then of br = aK,
    each radius moved to either side at random."""
    a, b, r, s, K = _random_points(rng, n)
    side = rng.choice((-1.0, 1.0), n) * rng.uniform(0.0, 1e-10, n)
    on_q2 = (b * K / s * (1.0 + side), b, r, s, K)
    on_q1 = (a, a * K / r * (1.0 + side), r, s, K)
    return [np.concatenate(v) for v in zip(on_q2, on_q1)]


@pytest.mark.parametrize("points", [lambda rng: _random_points(rng, 200_000),
                                    lambda rng: _near_cuts(rng, 50_000)],
                         ids=["random", "near-cuts"])
def test_h4_is_r1_less_two_kinks(points):
    a, b, r, s, K = points(np.random.default_rng(21))
    closed, q1, q2 = _closed_form(a, b, r, s, K)
    h4 = h4_value(a, b, r, s, K)
    assert (np.abs(closed - h4) <= 1e-12 * np.abs(h4)).all()
    assert not ((q1 < 0.0) & (q2 < 0.0)).any()
