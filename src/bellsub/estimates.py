"""Weighted estimates on dyadic filtrations driven by the Bellman function.

The discrete dissipation mechanism: along the martingale
V_k = (X^a_k, Z^a_k, u_k, w_k), with (u_k, w_k) the conditional averages of
the truncated weight's reciprocal and of the weight itself, one-leg convexity
gives pathwise at every node

    B(V_{k+1}) - B(V_k) - dB(V_k)(V_{k+1} - V_k)  >=  (2/Q) |dX_k| |dZ_k|,

the linear term has vanishing conditional expectation (children average to
the parent), and telescoping bounds (2/Q) E sum |dX||dZ| by E B(V_n), itself
controlled by the size estimate.  One-leg convexity reads B and dB at the
parent and B at the child, never d^2B, so B is evaluated once per level:
with its first partials on the parent levels 0..n-1, as a plain value on the
leaves.  The bilinear estimate follows by normalizing with the optimal
lambda.  The main estimate follows by duality, whose supremum is attained
exactly at the test martingale Z = Y w, so no search over test martingales
is needed.
"""

from __future__ import annotations

import numpy as np

from .bellman import (MARGIN_TOL, SIZE_CONSTANT, BellmanConfig, domain_masks,
                      evaluate_batch, one_leg_margin, profile_value)
from .errors import DomainError, InvalidInputError, SubordinationError
from .martingales import (bilinear_form, check_subordination, terminal_norm,
                          weighted_norm)
from .weights import (WeightTree, a2_characteristic, child_pairs, pair_increments,
                      parent_average, row_norm, row_sum)

LINEAR_TERM_TOL = 1e-10


def verify_bilinear_estimate(X, Y, Z, w: WeightTree, C_target: float):
    """Check E sum |<dY,dZ>|  <=  C_target * Q2[w] ||X||_w ||Z||_u for a
    subordinate pair (X, Y) and a test martingale Z."""
    _require_subordinate(X, Y, C_target)
    lhs = bilinear_form(Y, Z)
    q2 = a2_characteristic(w)
    nx, nz = weighted_norm(X, w), terminal_norm(Z.leaves, 1.0 / w.leaf_values)
    return _verdict(lhs, q2 * nx * nz, C_target)


def _require_subordinate(X, Y, C_target):
    """The precondition of both estimates: a finite positive C_target and Y
    subordinate to X."""
    if not (np.isfinite(C_target) and C_target > 0.0):
        raise DomainError(f"C_target must be finite and positive, got {C_target}")
    where = check_subordination(X, Y)
    if where is not None:
        raise SubordinationError(f"Y is not subordinate to X (first violation at {where})")


def _verdict(lhs, rhs, C_target):
    """The left side of an estimate lhs <= C_target * rhs, the ratio and
    whether it holds up to roundoff."""
    return {
        "lhs": lhs,
        "ratio": lhs / rhs if rhs > 0.0 else (0.0 if lhs == 0.0 else np.inf),
        "pass": lhs <= C_target * rhs + MARGIN_TOL,
    }


def bellman_telescope(X, Z, w_tree: WeightTree, cfg: BellmanConfig, anchor=None):
    """Pathwise one-leg verification and the telescoped dissipation bound.

    `domain_masks` decides membership once, at entry: leaf states (1/w, w)
    in the eps box, Q2[w] (the largest node product uw) at most Q, and the
    least state norm sqrt(a*a) of the anchor a at least ell.  Every level
    then lies in D_Q^{eps,ell}: node averages lie between their children,
    each uw is one of Q2's products and >= 1 by Jensen, and a state norm
    adds only nonnegative terms to a*a.  The size bound
    C (E|X|^2 w + E|Z|^2/w + 2a^2/eps), B and the sums are then computed
    under one floating-point guard, and states whose numbers overflow
    float64 are refused.  The anchor, a constant leading
    coordinate of X and Z, is the `lead` of `row_norm` in the state norms and
    its increment 0 the `lead` of the one-leg sums: the anchored rows' bits,
    without copies of X and Z.  B is evaluated with its first partials on
    each parent level and alone on the leaves, two levels' worth at a time.
    """
    n = X.depth
    if Z.depth != n or w_tree.depth != n:
        raise InvalidInputError("X, Z and the weight must share the depth")
    us, ws = w_tree.node_avg_u, w_tree.node_avg_w
    a = cfg.ell if anchor is None else float(anchor)
    least = np.sqrt(a * a)     # `row_norm` of a zero row with lead a
    _, leaves_in, anchor_in = domain_masks(least, least, us[n], ws[n], cfg)
    if not leaves_in.all():
        raise DomainError(f"weight leaves in [{ws[n].min():.4g}, {ws[n].max():.4g}] not truncated "
                          f"into [eps, 1/eps] = [{cfg.eps:.4g}, {1.0 / cfg.eps:.4g}]")
    q2 = a2_characteristic(w_tree)
    if not domain_masks(0.0, 0.0, q2, 1.0, cfg)[0]:
        raise DomainError(f"Q2[w] = {q2:.6g} exceeds configured Q = {cfg.Q}")
    if not (np.isfinite(a) and anchor_in.all()):
        raise DomainError(f"anchor a = {a} is not finite or sqrt(a*a) = {least:.6g} lies "
                          f"below ell = {cfg.ell}: states would leave the regularized domain")
    xs, ys = X.levels, Z.levels

    def bellman_at(k):
        """B on level k: with its first partials on a parent level, the
        value alone on the leaves."""
        xn, yn = row_norm(xs[k], a), row_norm(ys[k], a)
        if k < n:
            return evaluate_batch(xn, yn, us[k], ws[k], cfg, order=1)
        return profile_value(xn, yn, us[k], ws[k], cfg)

    # the increments of x, y, u and w, children paired on axis 1 so that the
    # parent arrays broadcast; taken after each level's B, one level at a time
    # (a zip would keep the last ones in its reused result tuple)
    steps = [pair_increments(v) for v in (xs, ys, us, ws)]

    def one_leg_step(k, parent, child_val):
        """Least margin, largest conditional mean of the linear term and
        mean jump of step k; its arrays are freed before the next level's B."""
        margins, lin, jump = one_leg_margin(
            parent.g[:, :, None], parent.value[:, None],
            (xs[k] / parent.a[:, None])[:, None], (ys[k] / parent.b[:, None])[:, None],
            child_pairs(child_val), *map(next, steps), cfg.Q, lead=0.0)
        return (float(margins.min()), float(np.abs(parent_average(lin.reshape(-1))).max()),
                float(np.mean(jump)))

    try:
        with np.errstate(over="raise", invalid="raise"):
            size_bound = float(SIZE_CONSTANT * (        # in numpy, where the guard sees it
                np.mean(row_sum(X.leaves * X.leaves) * w_tree.leaf_values)
                + np.mean(row_sum(Z.leaves * Z.leaves) / w_tree.leaf_values)
                + 2.0 * np.float64(a) * a / cfg.eps))
            per_step_margins, linear_term_max, dissipation = [], 0.0, 0.0
            parent = bellman_at(0)
            eb_root = float((parent.value if n else parent)[0])
            for k in range(n):
                child = bellman_at(k + 1)
                margin, lin_max, jump_mean = one_leg_step(
                    k, parent, child.value if k + 1 < n else child)
                per_step_margins.append(margin)
                linear_term_max = max(linear_term_max, lin_max)
                dissipation += (2.0 / cfg.Q) * jump_mean
                parent = child
            # telescoped expectation gap on the terminal level
            eb_term = float(np.mean(parent))
            gap = eb_term - eb_root
    except FloatingPointError as exc:
        raise DomainError(f"the telescope with anchor a = {a} overflows float64 ({exc})") from None

    scale = max(abs(eb_term), abs(eb_root), 1.0)
    min_margin = min(per_step_margins, default=0.0)
    ok = (min_margin >= -MARGIN_TOL
          and linear_term_max <= LINEAR_TERM_TOL * max(scale, 1.0)
          and dissipation <= gap + MARGIN_TOL * scale
          and eb_term <= size_bound + MARGIN_TOL * scale)
    return {
        "sum_increments": dissipation,
        "expectation_gap": gap,
        "bellman_terminal": eb_term,
        "bellman_bound": size_bound,
        "per_step_margins": per_step_margins,
        "min_margin": min_margin,
        "linear_term_max": linear_term_max,
        "anchor": a,
        "pass": bool(ok),
    }


def verify_main_theorem(X, Y, w: WeightTree, C_target: float, seed=0):
    """Check ||Y||_w <= C_target * Q2[w] ||X||_w for a subordinate pair.

    The left side is certified by duality: ||Y||_w is the supremum of
    |E<Y_inf, Z_inf>| / ||Z||_u over test martingales Z.  By Cauchy-Schwarz
    the pairing is at most ||Y||_w ||Z||_u, with equality at Z_inf = Y_inf w,
    so the dual is evaluated exactly at that extremal and `duality_gap`
    = |dual_lhs - lhs| is a roundoff cross-check of `terminal_norm`.

    `seed` is ignored: the exact dual draws no random test martingales.  It
    stays in the signature so that callers which still pass it keep working.
    """
    _require_subordinate(X, Y, C_target)
    lhs = weighted_norm(Y, w)
    q2 = a2_characteristic(w)
    rhs = q2 * weighted_norm(X, w)

    # the extremal test martingale enters only through its leaves
    z = Y.leaves * w.leaf_values[:, None]
    nz = terminal_norm(z, 1.0 / w.leaf_values)
    pairing = abs(float(np.mean(row_sum(Y.leaves * z))))
    dual = pairing / nz if nz > 0.0 else 0.0

    return {**_verdict(lhs, rhs, C_target), "dual_lhs": dual, "duality_gap": abs(dual - lhs)}
