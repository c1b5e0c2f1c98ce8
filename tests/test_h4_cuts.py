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
"""

import pytest


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
