import itertools

import numpy as np
import pytest

from bellsub import martingales as mg
from bellsub import sharpness as sh
from bellsub import weights as wt
from bellsub.errors import ConfigError, DomainError, InvalidInputError
from oracles import (exhaustive_multiplier_norm, random_start_ratio, repeat_apply_tsigma,
                     repeat_ascend_sigma, repeat_sqfun_operator, signed_transform,
                     sqfun_form, sqfun_norm_dense, sqfun_rayleigh)

CRITERION_8_TARGETS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 100.0)


def alternating(depth):
    """worst_ratio's start below sigma0 = +1: signs -1, +1, ... by generation."""
    return [np.full(2 ** k, (-1.0) ** (k + 1)) for k in range(depth)]


def realized_pair(w):
    """worst_ratio's ratio with its explicit (f, T_sigma f) pair as martingales."""
    ratio, det = sh.worst_ratio(w)
    X = mg.DyadicMartingale.from_leaves(det["f"])
    return ratio, X, mg.transform(X, det["sigma"], det["sigma0"])


def test_flat_weight_ratio_is_one():
    w = wt.power_weight_family(0.0, 6)
    assert wt.a2_characteristic(w) == 1.0
    ratio, _ = sh.worst_ratio(w)
    assert ratio <= 1.0 + 1e-9
    # a flat weight carries no slope, so the experiment refuses it alone
    with pytest.raises(ConfigError):
        sh.sharpness_experiment([0.0], depth=6)


def test_depth_zero_returns_the_trivial_pair():
    # on a single leaf T_sigma f = sigma0 f, so the ratio is exactly one
    w = wt.power_weight_family(-0.5, 0)
    ratio, X, Y = realized_pair(w)
    assert ratio == 1.0
    assert mg.check_subordination(X, Y) is None
    assert mg.weighted_norm(Y, w) / mg.weighted_norm(X, w) == 1.0


def test_delta_grid_validation():
    with pytest.raises(DomainError):
        sh.sharpness_experiment([-1.0], depth=6)
    with pytest.raises(DomainError):
        sh.sharpness_experiment([0.5], depth=6)
    with pytest.raises(InvalidInputError):
        sh.sharpness_experiment([-0.5], depth=15)


def test_worst_ratio_exceeds_one_and_is_deterministic():
    w = wt.power_weight_family(-0.8, 8)
    r1, d1 = sh.worst_ratio(w)
    r2, d2 = sh.worst_ratio(w)
    assert r1 == r2
    assert r1 > 1.2


def test_worst_ratio_is_realized_by_an_explicit_pair():
    w = wt.power_weight_family(-0.85, 8)
    ratio, X, Y = realized_pair(w)
    assert mg.check_subordination(X, Y) is None
    got = mg.weighted_norm(Y, w) / mg.weighted_norm(X, w)
    assert got == pytest.approx(ratio, rel=1e-10)


def test_ratio_growth_with_characteristic():
    deltas = [wt.delta_for_characteristic(q) for q in (2.0, 8.0, 32.0)]
    rows, slope = sh.sharpness_experiment(deltas, depth=10)
    ratios = [r["worst_ratio"] for r in rows]
    assert ratios[0] < ratios[1] < ratios[2]
    assert slope > 0.3


def test_ratio_never_exceeds_linear_bound():
    # consistency with the weighted estimate at a generous numeric constant
    for q2 in (2.0, 16.0, 64.0):
        w = wt.power_weight_family(wt.delta_for_characteristic(q2), 8)
        ratio, _ = sh.worst_ratio(w)
        assert ratio <= 10.0 * q2


def test_csv_table_shape():
    rows, slope = sh.sharpness_experiment([-0.6, -0.8], depth=6)
    text = sh.rows_to_csv(rows, slope)
    lines = text.strip().splitlines()
    assert lines[0] == "delta,depth,Q2,worst_ratio"
    assert len(lines) == 4 and lines[-1].startswith("# slope ")


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_sign_starts_never_beat_the_alternating_start(seed):
    # the restarts worst_ratio dropped: for the first f-step's f, no ascent
    # from a random sign start ends above the ascent from alternating signs
    # on the criterion-8 weights
    depth = 8
    for i, q2 in enumerate(CRITERION_8_TARGETS):
        w = wt.power_weight_family(wt.delta_for_characteristic(q2), depth).leaf_values
        f = sh._best_f_given_sigma(w, 1.0, alternating(depth))
        y = signed_transform(f, *sh._ascend_sigma(f, w, 1.0, alternating(depth)))
        start = float(np.mean(w * y * y) / np.mean(w * f * f))
        rng = np.random.default_rng([seed, i])
        assert random_start_ratio(f, w, sh._ascend_sigma, rng) <= start * (1 + 1e-12)


def test_worst_ratio_does_not_fall_with_depth():
    # a depth-m pair embeds exactly at depth n > m (the depth-m power weight
    # is the conditional expectation of the depth-n one), so the supremum is
    # nondecreasing in depth; the search's ratios are asked to be too
    for q2 in CRITERION_8_TARGETS:
        delta = wt.delta_for_characteristic(q2)
        ratios = [sh.worst_ratio(wt.power_weight_family(delta, n))[0] for n in range(1, 15)]
        assert all(a <= b for a, b in zip(ratios, ratios[1:])), (q2, ratios)


@pytest.mark.parametrize("depth, q2", [(3, q) for q in CRITERION_8_TARGETS]
                         + [(4, 2.0), (4, 100.0)])
def test_worst_ratio_meets_the_exhaustive_supremum(depth, q2):
    # every sign pattern's operator norm, against the search's realized pair
    w = wt.power_weight_family(wt.delta_for_characteristic(q2), depth)
    assert sh.worst_ratio(w)[0] == pytest.approx(exhaustive_multiplier_norm(w.leaf_values),
                                                 rel=1e-9)


def test_signed_transform_oracle_matches_library():
    rng = np.random.default_rng(14)
    f = rng.standard_normal(2 ** 5)
    sigs = [rng.choice([-1.0, 1.0], 2 ** k) for k in range(5)]
    assert np.allclose(signed_transform(f, -1.0, sigs), sh._apply_tsigma(f, -1.0, sigs),
                       rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("depth", [6, 8])
def test_sqfun_eigen_rayleigh_matches_dense_oracle(depth):
    rng = np.random.default_rng(depth)
    weights = [wt.power_weight_family(d, depth).leaf_values for d in (-0.5, -0.9)]
    weights += [np.exp(rng.normal(0.0, 1.5, 2 ** depth)) for _ in range(2)]
    for w in weights:
        got = sqfun_rayleigh(sh._top_eigvec(repeat_sqfun_operator(w), w), w)
        assert got == pytest.approx(sqfun_norm_dense(w), rel=1e-10)


def test_sign_average_is_square_function_form():
    # the lower bracket of criterion 8: E_sigma ||T_sigma f||_w^2 = S(f),
    # exactly, over all 2^8 sign choices of a depth-3 tree
    depth = 3
    rng = np.random.default_rng(12)
    w = np.exp(rng.normal(0.0, 1.5, 2 ** depth))
    f = rng.standard_normal(2 ** depth)
    cuts = np.cumsum([2 ** k for k in range(depth - 1)])
    vals = []
    for bits in itertools.product([-1.0, 1.0], repeat=2 ** depth):
        y = sh._apply_tsigma(f, bits[0], np.split(np.array(bits[1:]), cuts))
        vals.append(np.mean(w * y * y))
    assert np.mean(vals) == pytest.approx(sqfun_form(f, w), rel=1e-12)


def test_tsigma_capped_by_depth_times_square_function():
    # the upper bracket of criterion 8: T_sigma f is a sum of n+1 increments,
    # so ||T_sigma f||_w^2 <= (n+1) S(f) by Cauchy-Schwarz
    rng = np.random.default_rng(13)
    for depth in (3, 6, 9):
        w = np.exp(rng.normal(0.0, 1.5, 2 ** depth))
        for _ in range(20):
            f = rng.standard_normal(2 ** depth)
            sigs = [rng.choice([-1.0, 1.0], 2 ** k) for k in range(depth)]
            y = sh._apply_tsigma(f, rng.choice([-1.0, 1.0]), sigs)
            assert np.mean(w * y * y) <= (depth + 1) * sqfun_form(f, w) * (1 + 1e-12)
    depth = 10
    for delta in (-0.5, -0.9):
        w = wt.power_weight_family(delta, depth).leaf_values
        ratio, det = sh.worst_ratio(wt.WeightTree(w))
        f = det["f"]
        y = sh._apply_tsigma(f, det["sigma0"], det["sigma"])
        assert np.sqrt(np.mean(w * y * y) / np.mean(w * f * f)) == pytest.approx(ratio, rel=1e-12)
        assert np.mean(w * y * y) <= (depth + 1) * sqfun_form(f, w) * (1 + 1e-12)


def _kernel_weights(depth, rng):
    """Two power weights and two log-normal weights at `depth`."""
    weights = [wt.power_weight_family(d, depth).leaf_values for d in (-0.5, -0.9)]
    return weights + [np.exp(rng.normal(0.0, 1.5, 2 ** depth)) for _ in range(2)]


@pytest.mark.parametrize("depth", range(1, 13))
def test_level_resolution_kernels_match_repeat_oracles_bit_for_bit(depth):
    rng = np.random.default_rng([17, depth])
    for w in _kernel_weights(depth, rng):
        f = rng.standard_normal(2 ** depth)
        sig0 = rng.choice([-1.0, 1.0])
        sigs = [rng.choice([-1.0, 1.0], 2 ** k) for k in range(depth)]
        assert np.array_equal(sh._apply_tsigma(f, sig0, sigs),
                              repeat_apply_tsigma(f, sig0, sigs))
        for start0, start in ((sig0, sigs), (1.0, alternating(depth))):
            got0, got = sh._ascend_sigma(f, w, start0, [s.copy() for s in start])
            want0, want = repeat_ascend_sigma(f, w, start0, [s.copy() for s in start])
            assert got0 == want0
            assert len(got) == len(want) == depth
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("depth", range(3, 11))
def test_sqfun_operator_is_the_square_function_form(depth):
    # <f, N f> = S(f) and <g, N f> = <f, N g>, against the reshaped-block-mean
    # form; the symmetry gap is measured on the Cauchy-Schwarz scale
    rng = np.random.default_rng([18, depth])
    for w in _kernel_weights(depth, rng):
        apply = repeat_sqfun_operator(w)
        f, g = rng.standard_normal((2, 2 ** depth))
        nf, ng = apply(f), apply(g)
        assert f @ nf == pytest.approx(sqfun_form(f, w), rel=1e-12)
        assert g @ ng == pytest.approx(sqfun_form(g, w), rel=1e-12)
        assert abs(g @ nf - f @ ng) <= 1e-12 * np.sqrt((f @ nf) * (g @ ng))


@pytest.mark.parametrize("q2", (4.0, 32.0))
def test_worst_ratio_skips_the_f_step_that_repeats_the_last(q2, monkeypatch):
    # at depth 6 the last ascent leaves the signs as they were: the f-step
    # after it would rebuild the same operator and return the same f bit
    # for bit, so the search ends without running it
    w = wt.power_weight_family(wt.delta_for_characteristic(q2), 6)
    wl = w.leaf_values
    tops = []
    top = sh._top_eigvec
    monkeypatch.setattr(sh, "_top_eigvec", lambda *args: tops.append(top(*args)) or tops[-1])
    _, det = sh.worst_ratio(w)
    assert len(tops) == det["rounds_used"]
    assert det["rounds_used"] < sh.ROUNDS
    # no f-step returns the f of the step before it
    assert not any(np.array_equal(a, b) for a, b in zip(tops, tops[1:]))
    assert np.array_equal(tops[-1].view(np.uint8), det["f"].view(np.uint8))
    f = sh._best_f_given_sigma(wl, det["sigma0"], det["sigma"])
    assert np.array_equal(f.view(np.uint8), det["f"].view(np.uint8))
    sig0, sigs = sh._ascend_sigma(f, wl, det["sigma0"], list(det["sigma"]))
    assert sig0 == det["sigma0"]
    assert all(map(np.array_equal, sigs, det["sigma"]))
