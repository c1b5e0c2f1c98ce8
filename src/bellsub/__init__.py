"""bellsub: an explicit Bellman function for weighted differential
subordination, its numerical certification, and dyadic-filtration
martingale experiments around the sharp weighted L2 estimate."""

from .bellman import BellmanConfig, StatePoint, Perturbation, EvalResult, eval_B
from .coefficients import DEFAULT_COEFFICIENTS, validate_coefficients
from .certify import (SampleSpec, CertReport, CheckRecord, TauStats,
                      tau_sweep, check_c1_across_cuts,
                      run_certification, report_to_text, report_to_csv)
from .errors import (ConfigError, DomainError, InvalidInputError,
                     SubordinationError)
from .martingales import (DyadicMartingale, SimConfig, random_martingale, transform,
                          rotation_transform, check_subordination, weighted_norm,
                          bilinear_form)
from .estimates import (verify_bilinear_estimate, bellman_telescope,
                        anchor_sensitivity, verify_main_theorem,
                        projection_consistency)
from .mollify import (GridSpec, MollifiedH4, mollify_h4, default_grid_spec,
                      bump_kernel, composite_one_leg_margins)
from .sharpness import sharpness_experiment, worst_ratio
from .weights import (WeightTree, a2_characteristic, truncate_above,
                      truncate_two_sided, power_weight_family,
                      delta_for_characteristic)

__version__ = "0.1.0"
