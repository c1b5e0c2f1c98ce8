import dataclasses

import numpy as np
import pytest

from bellsub.bellman import BLOCK_WEIGHTS, BellmanConfig
from bellsub.coefficients import DEFAULT_COEFFICIENTS, reduced_margin, validate_coefficients
from bellsub.errors import ConfigError
from oracles import orthant_directions

# boundary point of the feasible region: zero margin along flat directions
MINIMAL = (0.5, 4.0 / np.sqrt(3.0), 4.0 / np.sqrt(3.0), 512.0)
DRAFTS = {
    "doubled": tuple(2.0 * c for c in DEFAULT_COEFFICIENTS),
    "minimal": MINIMAL,
    "no_c7": (0.5, 2.4, 2.4, 0.0),
    "small_c1": (0.4, 2.4, 2.4, 600.0),
    "small_c2_c3": (0.5, 0.05, 0.05, 600.0),
}
INFEASIBLE = ("no_c7", "small_c1", "small_c2_c3")


def _sampled_minimum(coeffs):
    dirs = orthant_directions(16, 1_000_000, np.random.default_rng(99))
    return reduced_margin(coeffs, *dirs.T).min()


def test_defaults_certified_on_large_random_bank():
    margin, worst = validate_coefficients(DEFAULT_COEFFICIENTS)
    assert margin == 0.0 == _sampled_minimum(DEFAULT_COEFFICIENTS)
    assert reduced_margin(DEFAULT_COEFFICIENTS, *worst) == 0.0


@pytest.mark.parametrize("name", sorted(DRAFTS))
def test_exact_minimum_below_a_million_sampled_directions(name):
    coeffs = DRAFTS[name]
    margin, worst = validate_coefficients(coeffs)
    sampled = _sampled_minimum(coeffs)
    # the grid holds the minimizers, so the two agree up to rounding
    roundoff = 1e-12 * max(1.0, abs(margin))
    assert margin <= sampled + roundoff
    assert sampled - margin <= 1e-3 * max(1.0, abs(margin))
    assert (worst >= 0.0).all() and np.linalg.norm(worst) == pytest.approx(1.0)
    assert reduced_margin(coeffs, *worst) == pytest.approx(margin, abs=1e-12)


@pytest.mark.parametrize("name", INFEASIBLE)
def test_infeasible_drafts_name_a_violating_direction(name):
    margin, worst = validate_coefficients(DRAFTS[name])
    assert margin < 0.0
    assert reduced_margin(DRAFTS[name], *worst) < 0.0


def test_default_config_carries_the_validated_defaults():
    # B's block weights are the defaults, c7 on each of B4, B5, B6, and a
    # BellmanConfig names the domain alone
    c7 = DEFAULT_COEFFICIENTS[3]
    assert BLOCK_WEIGHTS == DEFAULT_COEFFICIENTS + (c7, c7)
    assert validate_coefficients(BLOCK_WEIGHTS[:4])[0] == 0.0
    assert [f.name for f in dataclasses.fields(BellmanConfig)] == ["Q", "eps", "ell", "dim"]
    assert not [v for v in vars(BellmanConfig).values() if isinstance(v, property)]
    with pytest.raises(TypeError):
        BellmanConfig(c7=1.0)


def test_homogeneity_doubling_preserves_feasibility():
    doubled = tuple(2.0 * c for c in DEFAULT_COEFFICIENTS)
    margin, _ = validate_coefficients(doubled)
    assert margin >= 0.0


def test_minimal_coefficients_sit_on_the_boundary():
    margin, _ = validate_coefficients(MINIMAL)
    assert -1e-12 <= margin <= 1e-9   # zero up to float rounding of sqrt(3)


def test_dropping_c7_fails_on_a_pure_rs_direction():
    draft = (0.5, 2.4, 2.4, 0.0)
    margin, worst = validate_coefficients(draft)
    # the violating mechanism is explicit: no |dx|, |dy| content
    assert margin < 0.0 and (worst[:2] == 0.0).all()
    assert reduced_margin(draft, 0.0, 0.0, 1.0, 1.0) < 0.0


def test_validation_rejects_nonpositive():
    with pytest.raises(ConfigError):
        validate_coefficients((0.0, 1.0, 1.0, 1.0))
