from fractions import Fraction

import numpy as np
import pytest

from bellsub import martingales as mg
from bellsub import weights as wt
from bellsub.errors import InvalidInputError, SubordinationError
from oracles import (mass_bilinear_form, qr_rotation, repeat_increments, repeat_transform,
                     rotation_transform_per_node)
from test_golden import skip_unless_golden_env


def test_martingale_property_exact():
    X = mg.random_martingale(mg.SimConfig(depth=6, dim=3), np.random.default_rng(1))
    for k in range(X.depth):
        avg = 0.5 * (X.levels[k + 1][0::2] + X.levels[k + 1][1::2])
        assert np.array_equal(avg, X.levels[k])


def test_constant_leaves_have_zero_increments():
    X = mg.DyadicMartingale.from_leaves(np.tile([2.0, -1.0], (8, 1)))
    for inc in wt.pair_increments(X.levels):
        assert np.array_equal(inc, np.zeros_like(inc))


def test_sibling_increments_are_opposite():
    X = mg.random_martingale(mg.SimConfig(depth=5, dim=2), np.random.default_rng(2))
    for inc in wt.pair_increments(X.levels):
        # equal up to the rounding residue of the parent average
        assert np.allclose(inc[:, 0], -inc[:, 1], rtol=0, atol=1e-14)


def test_terminal_second_moment_close_to_dim():
    X = mg.random_martingale(mg.SimConfig(depth=10, dim=3), np.random.default_rng(3))
    m2 = np.mean(np.sum(X.leaves ** 2, axis=1))
    assert abs(m2 - 3.0) / 3.0 < 0.05


def test_square_bracket_identity():
    X = mg.random_martingale(mg.SimConfig(depth=8, dim=2), np.random.default_rng(4))
    total = float(np.sum(X.initial ** 2))
    for k, inc in enumerate(wt.pair_increments(X.levels), start=1):
        total += float(np.sum(inc ** 2)) * 2.0 ** (-k)
    assert mg.terminal_norm(X.leaves, 1.0) ** 2 == pytest.approx(total, rel=1e-12)


def test_transform_identity_and_negation():
    X = mg.random_martingale(mg.SimConfig(depth=5, dim=2), np.random.default_rng(5))
    Y = mg.transform(X, [np.full(2 ** k, 1.0) for k in range(X.depth)], 1.0)
    # reassembly from increments rounds once per level
    assert all(np.allclose(a, b, rtol=1e-13, atol=1e-14)
               for a, b in zip(Y.levels, X.levels))
    Yn = mg.transform(X, [np.full(2 ** k, -1.0) for k in range(X.depth)], -1.0)
    assert all(np.allclose(a, -b, rtol=1e-13, atol=1e-14)
               for a, b in zip(Yn.levels, X.levels))
    assert mg.terminal_norm(Yn.leaves, 1.0) == pytest.approx(mg.terminal_norm(X.leaves, 1.0), rel=1e-13)


def test_transform_alternating_signs_subordinate():
    X = mg.random_martingale(mg.SimConfig(depth=6, dim=2), np.random.default_rng(6))
    sig = [np.where(np.arange(2 ** k) % 2 == 0, 1.0, -1.0) for k in range(X.depth)]
    Y = mg.transform(X, sig, sigma0=-1.0)
    assert mg.check_subordination(X, Y) is None


def test_transform_rejects_large_sigma():
    X = mg.random_martingale(mg.SimConfig(depth=3, dim=1), np.random.default_rng(7))
    sig = [np.ones(1), np.ones(2), np.ones(4)]
    sig[1][0] = 1.5
    with pytest.raises(SubordinationError):
        mg.transform(X, sig)


def test_rotation_transform_subordinate_but_not_multiplier():
    rng = np.random.default_rng(8)
    X = mg.random_martingale(mg.SimConfig(depth=6, dim=2), rng)
    Y = mg.rotation_transform(X, rng)
    assert mg.check_subordination(X, Y) is None
    # some increment is not a scalar multiple of its source
    ddx = list(wt.pair_increments(X.levels))[2][0, 0]
    ddy = list(wt.pair_increments(Y.levels))[2][0, 0]
    cross = abs(ddx[0] * ddy[1] - ddx[1] * ddy[0])
    assert cross > 1e-10


def _doubled_at(level):
    """Y copying X's increments, with the roots (level 0) or, at a level
    k >= 1, the last parent's two children doubled: siblings carry opposite
    increments, so the even child 2^k - 2 is the first violation."""
    def build(X, rng):
        root, incs = X.levels[0].copy(), list(wt.pair_increments(X.levels))
        if level:
            incs[level - 1][-1] *= 2.0
        else:
            root *= 2.0
        return mg.DyadicMartingale(wt.levels_from_increments(root, incs))
    return build


def _signs(X, rng):
    return mg.transform(X, [rng.choice((-1.0, 1.0), 2 ** k) for k in range(X.depth)],
                        sigma0=-1.0)


SUBORDINATION_CASES = {**{f"level{k}": (_doubled_at(k), (k, max(2 ** k - 2, 0)))
                          for k in range(5)},
                       "transform": (_signs, None),
                       "rotation": (mg.rotation_transform, None)}


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
@pytest.mark.parametrize("build, expected", SUBORDINATION_CASES.values(),
                         ids=list(SUBORDINATION_CASES))
def test_check_subordination_reports_first_violation(build, expected, dim):
    rng = np.random.default_rng(9)
    X = mg.random_martingale(mg.SimConfig(depth=4, dim=dim), rng)
    assert mg.check_subordination(X, build(X, rng)) == expected


def test_check_subordination_needs_one_depth():
    X = mg.random_martingale(mg.SimConfig(depth=4, dim=2), np.random.default_rng(9))
    with pytest.raises(InvalidInputError):
        mg.check_subordination(X, mg.random_martingale(mg.SimConfig(depth=3, dim=2),
                                                       np.random.default_rng(9)))


def test_weighted_norm_cases():
    X = mg.random_martingale(mg.SimConfig(depth=6, dim=2), np.random.default_rng(10))
    ones = wt.WeightTree(np.ones(2 ** 6))
    assert mg.weighted_norm(X, ones) == pytest.approx(mg.terminal_norm(X.leaves, 1.0), rel=1e-14)
    w = wt.power_weight_family(-0.5, 6)
    C = mg.DyadicMartingale.from_leaves(np.tile([1.5, 0.5], (2 ** 6, 1)))
    expect = np.sqrt(2.5) * np.sqrt(np.mean(w.leaf_values))
    assert mg.weighted_norm(C, w) == pytest.approx(expect, rel=1e-14)
    tripled = mg.DyadicMartingale([3.0 * lev for lev in X.levels])
    assert mg.weighted_norm(tripled, w) == pytest.approx(3.0 * mg.weighted_norm(X, w), rel=1e-14)


def test_bilinear_form_polarization_and_flip():
    X = mg.random_martingale(mg.SimConfig(depth=6, dim=2), np.random.default_rng(11))
    norm2 = mg.terminal_norm(X.leaves, 1.0) ** 2
    assert mg.bilinear_form(X, X) == pytest.approx(norm2, rel=1e-12)
    rng = np.random.default_rng(12)
    sig = [np.where(rng.standard_normal(2 ** k) > 0, 1.0, -1.0) for k in range(X.depth)]
    Z = mg.transform(X, sig, sigma0=-1.0)
    assert mg.bilinear_form(X, Z) == pytest.approx(mg.bilinear_form(X, X), rel=1e-12)


def test_bilinear_form_dominates_terminal_pairing():
    rng = np.random.default_rng(13)
    for trial in range(1000):
        depth = int(rng.integers(1, 6))
        cfgA = mg.SimConfig(depth=depth, dim=2)
        Y = mg.random_martingale(cfgA, rng)
        Z = mg.random_martingale(cfgA, rng)
        pairing = abs(float(np.mean(np.sum(Y.leaves * Z.leaves, axis=1))))
        assert pairing <= mg.bilinear_form(Y, Z) + 1e-12


def test_bracket_difference_running_sums():
    """Node-wise |dY| <= |dX| is the same as the running bracket difference
    sums being nonnegative and nondecreasing along every path."""
    rng = np.random.default_rng(15)
    X = mg.random_martingale(mg.SimConfig(depth=6, dim=2), rng)
    Y = mg.rotation_transform(X, rng)
    Y = mg.DyadicMartingale([0.5 * lev for lev in Y.levels])
    assert mg.check_subordination(X, Y) is None
    n = X.depth
    dXs, dYs = ([inc.reshape(-1, 2) for inc in wt.pair_increments(M.levels)] for M in (X, Y))
    for leaf in range(2 ** n):
        run = float(X.initial @ X.initial - Y.initial @ Y.initial)
        assert run >= -1e-12
        for k in range(1, n + 1):
            node = leaf >> (n - k)
            step = float(dXs[k - 1][node] @ dXs[k - 1][node]
                         - dYs[k - 1][node] @ dYs[k - 1][node])
            assert step >= -1e-12          # nondecreasing
            run += step
            assert run >= -1e-12           # nonnegative


def test_weighted_norm_is_terminal_supremum():
    from bellsub import weights as wt
    rng = np.random.default_rng(16)
    X = mg.random_martingale(mg.SimConfig(depth=7, dim=2), rng)
    w = wt.WeightTree(np.exp(rng.normal(0, 1, 2 ** 7)))
    terminal = mg.weighted_norm(X, w)
    n = X.depth
    for k in range(n + 1):
        level_vals = np.repeat(np.sum(X.levels[k] ** 2, axis=1), 2 ** (n - k))
        norm_k = float(np.sqrt(np.mean(level_vals * w.leaf_values)))
        assert norm_k <= terminal + 1e-12


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_rotation_transform_matches_per_node_draws(dim):
    X = mg.random_martingale(mg.SimConfig(depth=9, dim=dim), np.random.default_rng(17))
    rng_batched, rng_loop = np.random.default_rng(18), np.random.default_rng(18)
    Y = mg.rotation_transform(X, rng_batched)
    ref = rotation_transform_per_node(X, rng_loop)
    assert all(np.array_equal(a, b) for a, b in zip(Y.levels, ref.levels))
    # the generator stream ends at the same position
    assert rng_batched.standard_normal() == rng_loop.standard_normal()


def test_rotate_pairs_matches_einsum_with_signed_zeros():
    rng = np.random.default_rng(21)
    rots = mg._orthogonal_factors(rng.standard_normal((64, 2, 2)))
    dX = rng.choice([0.0, -0.0, 1.5, -2.0], (64, 2, 2))
    want = np.einsum("pij,pcj->pci", rots, dX)
    assert np.array_equal(mg._rotate_pairs(rots, dX).view(np.int64), want.view(np.int64))


def _differing_rows(a, b):
    """Rows of two (p, 2, 2) stacks that differ in any bit, signed zeros and
    nan payloads included."""
    return ~(a.view(np.int64) == b.view(np.int64)).all(axis=(1, 2))


def test_householder_2x2_matches_qr_bit_for_bit_on_gaussian_draws():
    skip_unless_golden_env("simulate-seed1.csv")
    for seed in range(16):   # 2^20 draws
        g = np.random.default_rng(seed).standard_normal((2 ** 16, 2, 2))
        assert mg._householder_exact(g).all()
        assert not _differing_rows(mg._orthogonal_factors(g), qr_rotation(g)).any(), seed


TINY, HUGE = 2.0 ** -200, 2.0 ** 200
# (matrix, whether `_householder_2x2` computes it) per constructed row
CONSTRUCTED = [
    ([[1.0, 2.0], [0.0, 3.0]], False),          # a21 = +0: LAPACK's tau = 0
    ([[1.0, 2.0], [-0.0, 3.0]], False),         # a21 = -0
    ([[0.0, 2.0], [1.0, 3.0]], True),           # a11 = +0
    ([[-0.0, 2.0], [1.0, 3.0]], True),          # a11 = -0
    ([[-0.0, 2.0], [-1.0, -3.0]], True),
    ([[0.0, 2.0], [0.0, 3.0]], False),          # zero first column
    ([[-0.0, 2.0], [0.0, -3.0]], False),
    ([[0.0, 0.0], [0.0, 0.0]], False),          # all zero
    ([[-0.0, -0.0], [-0.0, 0.0]], False),
    ([[1.0, 2.0], [3.0, 6.0]], True),           # rank 1
    ([[1.0, -2.0], [3.0, -6.0]], True),
    ([[3.0, 1.0], [-6.0, -2.0]], True),
    ([[0.1, 0.3], [0.7, 2.1]], True),
    ([[1.0, 1.0], [1.0, 1.0]], True),
    ([[1.0, 0.0], [1.0, 0.0]], True),           # zero second column
    ([[2.0, -0.0], [1.0, 0.0]], True),
    ([[1e-310, 1.0], [1e-310, 2.0]], False),    # subnormal
    ([[1.0, 5e-324], [1.0, 2.0]], False),
    ([[1e300, 1e300], [1e300, -1e300]], False),  # near 1e300
    ([[1.0, 2.0], [1e300, 3.0]], False),
    ([[HUGE, TINY], [TINY, -HUGE]], True),       # the ends of the exact range
    ([[TINY, -TINY], [HUGE, 1.0]], True),
    ([[np.inf, 1.0], [1.0, 1.0]], False),        # non-finite
    ([[1.0, np.nan], [1.0, 1.0]], False),
]


def test_householder_2x2_matches_qr_on_constructed_rows():
    skip_unless_golden_env("simulate-seed1.csv")
    rows = np.array([m for m, _ in CONSTRUCTED])
    assert mg._householder_exact(rows).tolist() == [fast for _, fast in CONSTRUCTED]
    with np.errstate(invalid="ignore"):
        assert not _differing_rows(mg._orthogonal_factors(rows), qr_rotation(rows)).any()
        # mixed into Gaussian draws, the other rows go through the QR
        g = np.random.default_rng(22).standard_normal((3 * len(rows), 2, 2))
        g[1::3] = rows
        assert not _differing_rows(mg._orthogonal_factors(g), qr_rotation(g)).any()


def test_fma_rounds_once():
    rng = np.random.default_rng(23)
    n = 4000
    a, b = rng.standard_normal((2, n)) * np.exp2(rng.integers(-60, 60, (2, n)))
    c = rng.standard_normal(n)
    # c = -a*b leaves only the product's rounding error; c = 1 is q22's case
    cases = [(a, b, c), (a, b, -(a * b)), (a, b, np.ones(n))]
    # a*b just below half an ulp of c in [1, 2): c + p is a tie that the
    # product's error decides, where a second rounding of t + e goes wrong
    x = rng.integers(1, 100, n) * 2.0 ** -30
    c = 1.0 + rng.integers(0, 2 ** 52, n) * 2.0 ** -52
    cases.append((1.0 + x, rng.choice([-1.0, 1.0], n) * 2.0 ** -53 * (1.0 - x), c))
    for a, b, c in cases:
        want = [float(Fraction(x) * Fraction(y) + Fraction(z)) for x, y, z in zip(a, b, c)]
        assert np.array_equal(mg._fma(a, b, c), want)


@pytest.mark.parametrize("dim", (1, 3))
@pytest.mark.parametrize("depth", (0, 1, 6, 12))
def test_layout_forms_match_repeat_oracles_bit_for_bit(depth, dim):
    rng = np.random.default_rng(20 + depth + dim)
    X = mg.random_martingale(mg.SimConfig(depth=depth, dim=dim), rng)
    Z = mg.random_martingale(mg.SimConfig(depth=depth, dim=dim), rng)
    got = [inc.reshape(-1, dim) for inc in wt.pair_increments(X.levels)]
    want = repeat_increments(X)
    assert len(got) == len(want) == depth
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    sig = [rng.uniform(-1.0, 1.0, 2 ** k) for k in range(depth)]
    Y, ref = mg.transform(X, sig, sigma0=-0.75), repeat_transform(X, sig, sigma0=-0.75)
    assert all(np.array_equal(a, b) for a, b in zip(Y.levels, ref.levels))
    assert mg.bilinear_form(Y, Z) == mass_bilinear_form(Y, Z)
    assert mg.bilinear_form(X, Z) == mass_bilinear_form(X, Z)
