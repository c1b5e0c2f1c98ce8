import numpy as np
import pytest

from bellsub import weights as wt
from bellsub.errors import DomainError, InvalidInputError


from oracles import q2_not_increased_exact


def test_constant_weight_characteristic_is_one():
    for c in (1.0, 3.0, 49.0, 0.125):
        w = wt.WeightTree(np.full(8, c))
        assert wt.a2_characteristic(w) == 1.0


def test_depth_one_worked_example():
    w = wt.WeightTree([2.0, 0.5])
    assert wt.a2_characteristic(w) == pytest.approx(25.0 / 16.0, abs=1e-15)
    tw = wt.truncate_above(w, 1.0)
    assert np.array_equal(tw.leaf_values, [1.0, 0.5])
    assert wt.a2_characteristic(tw) == pytest.approx(9.0 / 8.0, abs=1e-15)


def test_characteristic_at_least_one_on_random_weights():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        depth = rng.integers(1, 7)
        w = wt.WeightTree(np.exp(rng.normal(0, 1.5, 2 ** depth)))
        assert wt.a2_characteristic(w) >= 1.0


def test_jensen_at_every_node():
    rng = np.random.default_rng(1)
    w = wt.WeightTree(np.exp(rng.normal(0, 2, 64)))
    for wk, uk in zip(w.node_avg_w, w.node_avg_u):
        assert (wk * uk >= 1.0 - 1e-12).all()


def test_truncate_above_identity_and_monotonicity():
    rng = np.random.default_rng(2)
    leaves = np.exp(rng.normal(0, 1, 16))
    w = wt.WeightTree(leaves)
    assert np.array_equal(wt.truncate_above(w, leaves.max() + 1).leaf_values, leaves)
    t1 = wt.truncate_above(w, 0.8)
    assert np.array_equal(wt.truncate_above(t1, 0.8).leaf_values, t1.leaf_values)
    t2 = wt.truncate_above(w, 1.6)
    assert (t1.leaf_values <= t2.leaf_values).all()
    with pytest.raises(DomainError):
        wt.truncate_above(w, 0.0)


def test_truncation_never_increases_q2_exact_oracle():
    rng = np.random.default_rng(3)
    for trial in range(200):
        depth = int(rng.integers(1, 6))
        leaves = np.exp(rng.normal(0, 2, 2 ** depth))
        w = wt.WeightTree(leaves)
        a = float(np.exp(rng.normal(0, 1)))
        ta = wt.truncate_above(w, a)
        assert q2_not_increased_exact(w.leaf_values, ta.leaf_values)
        a2 = float(np.exp(abs(rng.normal(0, 1))))
        t2 = wt.truncate_two_sided(w, a2)
        assert q2_not_increased_exact(w.leaf_values, t2.leaf_values)


def test_two_sided_equals_literal_composition():
    rng = np.random.default_rng(4)
    leaves = np.exp(rng.normal(0, 2, 32))
    w = wt.WeightTree(leaves)
    a = 2.5
    direct = wt.truncate_two_sided(w, a)
    literal = wt.truncate_above(wt.truncate_above(w, a).inverse(), a).inverse()
    # the literal route makes two reciprocal passes, exact only up to rounding
    np.testing.assert_allclose(direct.leaf_values, literal.leaf_values, rtol=4e-16)
    # untouched leaves are exact copies on the direct route
    mid = (leaves >= 1 / a) & (leaves <= a)
    assert np.array_equal(direct.leaf_values[mid], leaves[mid])


def test_two_sided_special_cases():
    rng = np.random.default_rng(5)
    w = wt.WeightTree(np.exp(rng.normal(0, 2, 16)))
    one = wt.truncate_two_sided(w, 1.0)
    assert np.array_equal(one.leaf_values, np.ones(16))
    assert wt.a2_characteristic(one) == 1.0
    with pytest.raises(DomainError):
        wt.truncate_two_sided(w, 0.5)
    eps = 0.1
    boxed = wt.truncate_two_sided(w, 1.0 / eps)
    assert (boxed.leaf_values >= eps).all() and (boxed.leaf_values <= 1.0 / eps).all()


def test_power_weight_family():
    assert np.array_equal(wt.power_weight_family(0.0, 5).leaf_values, np.ones(32))
    w = wt.power_weight_family(1.0, 1)
    assert np.allclose(w.leaf_values, [0.25, 0.75], rtol=1e-15)
    # quadrature oracle for a fractional power (adaptive, handles the t=0 leaf)
    from scipy.integrate import quad
    delta, depth = -0.4, 6
    w = wt.power_weight_family(delta, depth)
    edges = np.linspace(0.0, 1.0, 2 ** depth + 1)
    for k in (0, 1, 5, 63):
        val, err = quad(lambda t: t ** delta, edges[k], edges[k + 1])
        assert w.leaf_values[k] == pytest.approx(val * 2 ** depth, rel=1e-8)
    with pytest.raises(DomainError):
        wt.power_weight_family(-1.0, 4)


def test_power_weight_q2_nondecreasing_in_depth():
    for delta in (-0.3, -0.6, -0.9):
        q2s = [wt.a2_characteristic(wt.power_weight_family(delta, n))
               for n in range(1, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(q2s, q2s[1:]))
        # saturates at 1/(1 - delta^2)
        assert q2s[-1] == pytest.approx(1.0 / (1.0 - delta ** 2), rel=1e-2)


def test_stopping_time_supremum_equals_node_maximum():
    """Randomized stopping times on depth <= 4 trees never exceed the node
    maximum, and a constant time attains it."""
    rng = np.random.default_rng(6)
    for _ in range(50):
        depth = int(rng.integers(1, 5))
        w = wt.WeightTree(np.exp(rng.normal(0, 1.5, 2 ** depth)))
        q2 = wt.a2_characteristic(w)
        best_st = 0.0
        for _ in range(100):
            # a stopping time = antichain cutting every root-leaf path once
            nodes = [(0, 0)]
            stopped = []
            while nodes:
                lev, idx = nodes.pop()
                if lev == depth or rng.random() < 0.4:
                    stopped.append((lev, idx))
                else:
                    nodes += [(lev + 1, 2 * idx), (lev + 1, 2 * idx + 1)]
            val = max(w.node_avg_w[lev][idx] * w.node_avg_u[lev][idx]
                      for lev, idx in stopped)
            best_st = max(best_st, val)
        assert best_st <= q2 + 1e-12
        # constant stopping times realize every level max, hence the node max
        levels = [float((wk * uk).max())
                  for wk, uk in zip(w.node_avg_w, w.node_avg_u)]
        assert max(levels) == pytest.approx(q2)


def test_serialization_roundtrip_is_exact():
    rng = np.random.default_rng(7)
    w = wt.WeightTree(np.exp(rng.normal(0, 2, 16)))
    text = wt.dumps(w)
    back = wt.loads(text)
    assert np.array_equal(back.leaf_values, w.leaf_values)
    assert wt.dumps(back) == text
    with pytest.raises(InvalidInputError):
        wt.loads("not a weight file")
    with pytest.raises(InvalidInputError):
        wt.loads("depth 2\n1.0\n2.0\n")   # wrong leaf count


def test_invalid_leaves_rejected():
    with pytest.raises(InvalidInputError):
        wt.WeightTree([1.0, -2.0])
    with pytest.raises(InvalidInputError):
        wt.WeightTree([1.0, 2.0, 3.0])
    with pytest.raises(InvalidInputError):
        wt.WeightTree([np.inf, 1.0])


# ---------------------------------------------------------------------------
# the vector-axis reductions, bit for bit against numpy
# ---------------------------------------------------------------------------

def _rows(shape, seed):
    """Rows whose entries span 40 orders of magnitude and both signs, so that
    any change of summation order shows in the last bits; one row in eight
    holds signed zeros only, one in eight mixes them with numbers."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape) * np.exp(rng.uniform(-46.0, 46.0, shape))
    v[::8] = np.copysign(0.0, v[::8])
    v[3::8, ..., ::2] = -0.0
    return v


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("lead", [(64,), (64, 2), (64, 1)])
@pytest.mark.parametrize("d", range(1, 10))
def test_row_sum_and_row_norm_match_numpy_bit_for_bit(lead, d):
    v = _rows(lead + (d,), seed=d)
    assert _same_bits(wt.row_sum(v), np.sum(v, axis=-1))
    assert _same_bits(wt.row_norm(v), np.linalg.norm(v, axis=-1))
    # a transposed (strided) view, as in the C1 gradient norms
    t = _rows((d, 64), seed=d + 10).T
    assert _same_bits(wt.row_sum(t), np.sum(t, axis=-1))
    assert _same_bits(wt.row_norm(t), np.linalg.norm(t, axis=-1))


@pytest.mark.parametrize("first", [0.0, -0.0, 0.15, -3.0e7])
@pytest.mark.parametrize("d", range(0, 10))
def test_a_lead_is_a_prepended_column_bit_for_bit(d, first):
    # the telescope's anchor: rows of d + 1 >= PAIRWISE_MIN go pairwise
    v = _rows((64, 2, d), seed=d)
    full = np.concatenate([np.full((64, 2, 1), first), v], axis=-1)
    assert _same_bits(wt.row_sum(v, first), np.sum(full, axis=-1))
    assert _same_bits(wt.row_norm(v, first), np.linalg.norm(full, axis=-1))


def test_row_sum_starts_each_row_at_positive_zero():
    # numpy adds onto +0.0, so a row of -0.0 sums to +0.0, not -0.0
    v = np.array([[-0.0], [-0.0], [0.0]]) * np.ones((3, 3))
    assert not np.signbit(wt.row_sum(v)).any()
    assert _same_bits(wt.row_sum(v), np.sum(v, axis=-1))


def test_row_sum_of_empty_rows_is_zero():
    assert _same_bits(wt.row_sum(np.empty((5, 0))), np.zeros(5))
