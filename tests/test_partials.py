"""The closed-form radial partials of B against two independent references.

`evaluate_batch` and `_batch` assemble values, gradients and Hessians from
the coefficient functions of each block; at order 1 they stop at the
gradient, with the same bits, and `b4_batch` is B4's batch at order 1.  The Jet oracle recomputes them by
forward-mode arithmetic on the textbook block formulas; the sympy check
differentiates one block per H4 region symbolically and evaluates the exact
derivatives at 30 digits.
"""

import numpy as np
import pytest

import bellsub as bs
from bellsub.bellman import (_batch, _unit_weights, b4_batch, evaluate_batch, h4_value,
                             kn_of_t, profile_value)
from bellsub.certify import _sample_arrays
from bellsub.errors import ConfigError
from jet_oracle import bellman_jets

QS = (2.0, 16.0, 256.0)


def _bank(cfg, n=4096, seed=1):
    x, y, r, s = _sample_arrays(cfg, np.random.default_rng(seed), n)
    return np.linalg.norm(x, axis=1), np.linalg.norm(y, axis=1), r, s


def _relative_error(got, want, axes):
    """Per point: largest entry error over the largest oracle entry."""
    scale = np.max(np.abs(want), axis=axes)
    return np.max(np.abs(got - want), axis=axes) / scale


@pytest.mark.parametrize("Q", QS)
def test_closed_form_matches_jet_oracle_on_certification_banks(Q):
    cfg = bs.BellmanConfig(Q=Q)
    a, b, r, s = _bank(cfg)
    full_jet, b4_jet = bellman_jets(a, b, r, s, cfg)
    for got, want in ((evaluate_batch(a, b, r, s, cfg), full_jet),
                      (_batch(a, b, r, s, Q, _unit_weights(4), 2), b4_jet)):
        away = ~got.cut
        assert {1, 2, 3} <= set(got.region[away].tolist())
        assert (np.abs(got.value - want.val) <= 1e-14 * np.abs(want.val)).all()
        assert (_relative_error(got.g, want.g, 0)[away] <= 1e-12).all()
        assert (_relative_error(got.h, want.h, (0, 1))[away] <= 1e-12).all()
        assert np.array_equal(got.h, np.swapaxes(got.h, 0, 1))


def test_value_path_and_derivative_path_agree_exactly():
    # one assembly of B: the value alone and the value beside the partials
    # are the same bits, for B and for H4 at a K given from outside
    for Q in (1.0, 2.0, 16.0, 256.0):
        cfg = bs.BellmanConfig(Q=Q)
        a, b, r, s = _bank(cfg, n=3000, seed=2)
        k = kn_of_t(r * s, Q)[0][0]
        q = len(a) // 4
        a[:q] = b[:q] * k[:q] / s[:q]
        b[q:2 * q] = a[q:2 * q] * k[q:2 * q] / r[q:2 * q]
        assert b4_batch(a, b, r, s, cfg).cut[:2 * q].all()
        assert (profile_value(a, b, r, s, cfg).tobytes()
                == evaluate_batch(a, b, r, s, cfg).value.tobytes()), Q
        assert (h4_value(a, b, r, s, k).tobytes()
                == b4_batch(a, b, r, s, cfg).value.tobytes()), Q


@pytest.mark.parametrize("dim", (1, 2, 3))
@pytest.mark.parametrize("Q", (1.0, 2.0, 16.0, 256.0))
def test_first_order_batch_is_the_second_order_batch_without_h(Q, dim):
    cfg = bs.BellmanConfig(Q=Q, dim=dim)
    a, b, r, s = _bank(cfg, n=20_000, seed=4)
    k = kn_of_t(r * s, Q)[0][0]
    # a quarter of the points onto each cut: |x|s = |y|K, then |y|r = |x|K
    q = len(a) // 4
    a[:q] = b[:q] * k[:q] / s[:q]
    b[q:2 * q] = a[q:2 * q] * k[q:2 * q] / r[q:2 * q]
    for full, first in ((evaluate_batch(a, b, r, s, cfg),
                         evaluate_batch(a, b, r, s, cfg, order=1)),
                        (_batch(a, b, r, s, Q, _unit_weights(4), 2),
                         b4_batch(a, b, r, s, cfg))):
        assert first.h is None and full.h is not None
        assert full.cut[:2 * q].all() and {1, 2, 3} <= set(full.region.tolist())
        for name in ("value", "g", "region", "cut"):
            assert getattr(first, name).tobytes() == getattr(full, name).tobytes(), name


@pytest.mark.parametrize("order", (0, 3))
def test_batch_order_must_be_one_or_two(order):
    cfg = bs.BellmanConfig()
    with pytest.raises(ConfigError, match="order"):
        evaluate_batch(np.ones(2), np.ones(2), np.ones(2), np.ones(2), cfg, order=order)


def _symbolic_partials(expr, variables, points, dps=30):
    """Value, gradient and Hessian of expr at each point, evaluated exactly."""
    import sympy as sp
    grad = [sp.diff(expr, v) for v in variables]
    hess = [[sp.diff(gi, v) for v in variables] for gi in grad]
    out = []
    for p in points:
        subs = {v: sp.Float(float(val), dps) for v, val in zip(variables, p)}
        ev = lambda e: float(e.evalf(dps, subs=subs))
        out.append((ev(expr), np.array([ev(gi) for gi in grad]),
                    np.array([[ev(hij) for hij in row] for row in hess])))
    return out


@pytest.mark.parametrize("Q", (2.0, 256.0))
def test_one_block_per_region_against_sympy(Q):
    sp = pytest.importorskip("sympy")
    cfg = bs.BellmanConfig(Q=Q)
    A, B, R, S = sp.symbols("a b r s", positive=True)
    t = R * S
    K = sp.sqrt(t / Q) * (1 - sp.sqrt(t) / (8 * sp.sqrt(Q)))
    N = sp.sqrt(t / Q) * (1 - t ** 2 / (128 * Q ** 2))
    h4_branches = {1: (A ** 2 * S - 2 * A * B * K + B ** 2 * R) / (t - K ** 2),
                   2: B ** 2 / S, 3: A ** 2 / R}
    legs = {2: A ** 2 / (2 * R - 1 / (S * (N + 1))) + B ** 2 / S,
            6: A ** 2 / R + B ** 2 / (2 * S - 1 / (R * (K + 1)))}

    a, b, r, s = _bank(cfg, n=2048, seed=3)
    checks = []
    h4 = _batch(a, b, r, s, Q, _unit_weights(4), 2)
    for region, expr in h4_branches.items():
        idx = np.flatnonzero((h4.region == region) & ~h4.cut)[:4]
        assert idx.size > 0
        checks.append((expr, h4, idx))
    for block, expr in legs.items():
        checks.append((expr, _batch(a, b, r, s, Q, _unit_weights(block), 2), np.arange(4)))
    for expr, batch, idx in checks:
        pts = np.stack([a[idx], b[idx], r[idx], s[idx]], axis=1)
        for i, (val, g, h) in zip(idx, _symbolic_partials(expr, (A, B, R, S), pts)):
            assert batch.value[i] == pytest.approx(val, rel=1e-14)
            assert np.max(np.abs(batch.g[:, i] - g)) <= 1e-12 * np.max(np.abs(g))
            assert np.max(np.abs(batch.h[:, :, i] - h)) <= 1e-12 * np.max(np.abs(h))
