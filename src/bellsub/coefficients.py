"""Certified component coefficients for the combined Bellman function.

The four blocks carry the following Hessian lower bounds (all divided by Q):

    d2 B1 >= 4 |dx||dy| + (4|x||y|/rs) |dr||ds| - (4|y|/s) |dx||ds| - (4|x|/r) |dy||dr|
    d2 B2 >= (sqrt(3)|x|/2r) |dy||dr| - (sqrt(3)|x||y|/2rs) |dr||ds|
    d2 B3 >= (sqrt(3)|y|/2s) |dx||ds| - (sqrt(3)|x||y|/2rs) |dr||ds|
    d2 B7 >= (|x||y|/256rs) |dr||ds|

Substituting P = |dx|/|x|, T = |dy|/|y|, R = |dr|/r, S = |ds|/s and dividing
by |x||y| turns "the weighted sum dominates 2|dx||dy|" into a four-variable
nonnegativity problem over the nonnegative orthant:

    g(P,T,R,S) = 4 c1 (P-R)(T-S) + (sqrt(3)/2) c2 R(T-S)
                 + (sqrt(3)/2) c3 S(P-R) + (c7/256) R S - 2 P T  >=  0.

Feasibility is equivalent to  4c1 >= 2,  (sqrt(3)/2)c2 >= 4c1 - 2 + 2,
(sqrt(3)/2)c3 likewise, and c7/256 - 2 >= (sum of the two slack terms); the
defaults below sit strictly inside that region.  g is a quadratic form, so
`validate_coefficients` decides this exactly: the least value of g on the
unit sphere of the orthant is attained where g restricted to the support of
the minimizer has a positive eigenvector, hence it is the least eigenvalue,
over the 15 principal submatrices of g's matrix, whose eigenvector is
strictly positive (Kaplan's copositivity test, Linear Algebra Appl. 313,
2000).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import ConfigError

SQ3H = np.sqrt(3.0) / 2.0

#: B's coefficients (c1, c2, c3, c7), from which `bellman.BLOCK_WEIGHTS`
#: is built; their exact minimum margin is 0, attained along every
#: coordinate axis.
DEFAULT_COEFFICIENTS = (0.5, 2.4, 2.4, 600.0)


def reduced_margin(coeffs, P, T, R, S):
    """g(P,T,R,S) above, vectorized over direction arrays."""
    c1, c2, c3, c7 = coeffs
    return (4.0 * c1 * (P - R) * (T - S) + SQ3H * c2 * R * (T - S)
            + SQ3H * c3 * S * (P - R) + (c7 / 256.0) * R * S - 2.0 * P * T)


def validate_coefficients(coeffs, tol=0.0):
    """Certify the reduced inequality exactly over the nonnegative orthant.

    Returns (min_margin, worst_direction), the least value of g on unit
    nonnegative directions and a unit direction attaining it; raises
    ConfigError when the draft is infeasible, naming that direction.  tol
    admits margins down to -tol, for drafts sitting exactly on the
    feasibility boundary where float rounding of sqrt(3) leaves margins a few
    ulps under zero.
    """
    c1, c2, c3, c7 = coeffs
    if min(c1, c2, c3) <= 0.0 or c7 < 0.0:
        raise ConfigError("coefficients must be positive (c7 may only vanish in drafts)")
    # g's symmetric matrix by polarization: 2 A_ij = g(e_i + e_j) - g(e_i) - g(e_j)
    pairs = np.eye(4)[:, None, :] + np.eye(4)[None, :, :]
    both = reduced_margin(coeffs, *np.moveaxis(pairs, -1, 0))
    single = np.diag(both) / 4.0
    form = (both - single[:, None] - single[None, :]) / 2.0
    margin, worst = np.inf, None
    for k in range(1, 5):
        for face in combinations(range(4), k):
            vals, vecs = np.linalg.eigh(form[np.ix_(face, face)])
            for val, vec in zip(vals, vecs.T):
                vec = vec if vec.sum() > 0.0 else -vec
                if val < margin and (vec > 0.0).all():
                    margin, worst = val, np.zeros(4)
                    worst[list(face)] = vec
    if margin < -tol:
        raise ConfigError(
            "coefficient draft infeasible: margin "
            f"{margin:.3e} at direction (|dx|/|x|,|dy|/|y|,|dr|/r,|ds|/s)="
            f"({worst[0]:.6f},{worst[1]:.6f},{worst[2]:.6f},{worst[3]:.6f})")
    return float(margin), worst
