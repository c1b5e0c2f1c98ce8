"""Weighted estimates on dyadic filtrations driven by the Bellman function.

The discrete dissipation mechanism: along the martingale
V_k = (X^a_k, Z^a_k, u_k, w_k), with (u_k, w_k) the conditional averages of
the truncated weight's reciprocal and of the weight itself, one-leg convexity
gives pathwise at every node

    B(V_{k+1}) - B(V_k) - dB(V_k)(V_{k+1} - V_k)  >=  (2/Q) |dX_k| |dZ_k|,

the linear term has vanishing conditional expectation (children average to
the parent), and telescoping bounds (2/Q) E sum |dX||dZ| by E B(V_n), itself
controlled by the size estimate.  The bilinear and main estimates follow by
normalizing with the optimal lambda and by duality.
"""

from __future__ import annotations

import numpy as np

from .bellman import BellmanConfig, evaluate_batch, profile_value
from .errors import DomainError, InvalidInputError, SubordinationError
from .martingales import (DyadicMartingale, bilinear_form, check_subordination,
                          terminal_norm, weighted_norm)
from .weights import WeightTree, a2_characteristic

MARGIN_TOL = 1e-8
LINEAR_TERM_TOL = 1e-10


def verify_bilinear_estimate(X, Y, Z, w: WeightTree, C_target: float):
    """Check E sum |<dY,dZ>|  <=  C_target * Q2[w] ||X||_w ||Z||_u for a
    subordinate pair (X, Y) and a test martingale Z.

    Also reports the lambda-normalization: lam^2 = (EG)^(1/2) (EF)^(-1/2)
    balances lam^2 EF + lam^-2 EG into 2 sqrt(EF EG), the step that turns the
    dissipation bound into a product bound.
    """
    sub = check_subordination(X, Y)
    if not sub.ok:
        raise SubordinationError(f"Y is not subordinate to X (first violation at "
                                 f"{sub.first_violation})")
    u = w.inverse()
    lhs = bilinear_form(Y, Z)
    q2 = a2_characteristic(w)
    nx, nz = weighted_norm(X, w), weighted_norm(Z, u)
    rhs = q2 * nx * nz
    EF, EG = nx * nx, nz * nz
    lam2 = np.sqrt(EG / EF) if EF > 0.0 else np.inf
    return {
        "lhs": lhs,
        "rhs": rhs,
        "ratio": lhs / rhs if rhs > 0.0 else (0.0 if lhs == 0.0 else np.inf),
        "pass": lhs <= C_target * rhs + MARGIN_TOL,
        "lambda2": float(lam2),
        "sum_unoptimized": EF + EG,
        "sum_optimized": 2.0 * np.sqrt(EF * EG),
    }


def bellman_telescope(X, Z, w_tree: WeightTree, cfg: BellmanConfig, anchor=None):
    """Pathwise one-leg verification and the telescoped dissipation bound.

    Requires the weight truncated into [eps, 1/eps] leaf-wise and
    Q2[w] <= cfg.Q.  The anchor a >= ell is prepended as a constant
    coordinate to X and Z so that |X^a|, |Z^a| >= ell keeps the state inside
    the regularized domain.
    """
    n = X.depth
    if Z.depth != n or w_tree.depth != n:
        raise InvalidInputError("X, Z and the weight must share the depth")
    lo, hi = w_tree.leaf_values.min(), w_tree.leaf_values.max()
    if lo < cfg.eps * (1.0 - 1e-12) or hi > (1.0 + 1e-12) / cfg.eps:
        raise DomainError(
            f"weight leaves in [{lo:.4g}, {hi:.4g}] not truncated into "
            f"[eps, 1/eps] = [{cfg.eps:.4g}, {1.0 / cfg.eps:.4g}]")
    q2 = a2_characteristic(w_tree)
    if q2 > cfg.Q * (1.0 + 1e-12):
        raise DomainError(f"Q2[w] = {q2:.6g} exceeds configured Q = {cfg.Q}")
    a = cfg.ell if anchor is None else float(anchor)
    if a < cfg.ell:
        raise DomainError(f"anchor a = {a} below ell = {cfg.ell}: states would "
                          "leave the regularized domain")

    u_tree = w_tree.inverse()
    Xa, Za = X.with_anchor(a), Z.with_anchor(a)

    min_margin = np.inf
    per_step_margins = []
    linear_term_max = 0.0
    dissipation = 0.0

    for k in range(n):
        xp, yp = Xa.levels[k], Za.levels[k]
        rp, sp = u_tree.level(k), w_tree.level(k)
        ap = np.linalg.norm(xp, axis=1)
        bp = np.linalg.norm(yp, axis=1)
        _check_states(ap, bp, rp, sp, cfg, a, level=k)
        parent = evaluate_batch(ap, bp, rp, sp, cfg)
        parent_val = profile_value(ap, bp, rp, sp, cfg)
        xhat = xp / ap[:, None]
        yhat = yp / bp[:, None]

        xc, yc = Xa.levels[k + 1], Za.levels[k + 1]
        rc, sc = u_tree.level(k + 1), w_tree.level(k + 1)
        ac = np.linalg.norm(xc, axis=1)
        bc = np.linalg.norm(yc, axis=1)
        if k + 1 == n:
            _check_states(ac, bc, rc, sc, cfg, a, level=k + 1)
        child_val = profile_value(ac, bc, rc, sc, cfg)

        rep = lambda arr: np.repeat(arr, 2, axis=0)
        dx = xc - rep(xp)
        dy = yc - rep(yp)
        dr = rc - rep(rp)
        ds = sc - rep(sp)
        lin = (rep(parent.g[0]) * np.sum(rep(xhat) * dx, axis=1)
               + rep(parent.g[1]) * np.sum(rep(yhat) * dy, axis=1)
               + rep(parent.g[2]) * dr + rep(parent.g[3]) * ds)
        jump = np.linalg.norm(dx, axis=1) * np.linalg.norm(dy, axis=1)
        margins = child_val - rep(parent_val) - lin - (2.0 / cfg.Q) * jump

        per_step_margins.append(float(margins.min()))
        min_margin = min(min_margin, per_step_margins[-1])
        cond_mean = 0.5 * (lin[0::2] + lin[1::2])
        linear_term_max = max(linear_term_max, float(np.abs(cond_mean).max()))
        dissipation += (2.0 / cfg.Q) * float(jump.sum()) * 2.0 ** (-(k + 1))

    # telescoped expectation gap and the size bound on the terminal level
    a_term = np.linalg.norm(Xa.leaves, axis=1)
    b_term = np.linalg.norm(Za.leaves, axis=1)
    eb_term = float(np.mean(profile_value(a_term, b_term, u_tree.level(n),
                                          w_tree.level(n), cfg)))
    eb_root = float(profile_value(
        np.array([np.linalg.norm(Xa.initial)]), np.array([np.linalg.norm(Za.initial)]),
        np.array([u_tree.level(0)[0]]), np.array([w_tree.level(0)[0]]), cfg)[0])
    gap = eb_term - eb_root

    EF = float(np.mean(np.sum(X.leaves ** 2, axis=1) * w_tree.leaf_values))
    EG = float(np.mean(np.sum(Z.leaves ** 2, axis=1) / w_tree.leaf_values))
    size_bound = cfg.size_constant * (EF + EG + 2.0 * a * a / cfg.eps)

    scale = max(abs(eb_term), abs(eb_root), 1.0)
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
        "min_margin": float(min_margin) if n > 0 else 0.0,
        "linear_term_max": linear_term_max,
        "anchor": a,
        "q2": q2,
        "pass": bool(ok),
    }


def _check_states(a, b, r, s, cfg, anchor, level):
    t = r * s
    if (t < 1.0 - 1e-12).any() or (t > cfg.Q * (1.0 + 1e-12)).any():
        raise DomainError(f"level {level}: node (u,w) product leaves [1, Q]")
    if ((r < cfg.eps * (1 - 1e-12)) | (r > (1 + 1e-12) / cfg.eps)
            | (s < cfg.eps * (1 - 1e-12)) | (s > (1 + 1e-12) / cfg.eps)).any():
        raise DomainError(f"level {level}: node weight average outside the eps box")
    if (a < cfg.ell).any() or (b < cfg.ell).any():
        raise DomainError(
            f"level {level}: |x| or |y| below ell = {cfg.ell}; the anchor "
            f"a = {anchor} is too small to keep states in the regularized domain")


def anchor_sensitivity(X, Z, w_tree, cfg, multipliers=(1.0, 2.0, 10.0)):
    """Telescope results for a in ell * multipliers (reported, not asserted)."""
    return {m: bellman_telescope(X, Z, w_tree, cfg, anchor=cfg.ell * m)
            for m in multipliers}


def verify_main_theorem(X, Y, w: WeightTree, C_target: float, n_test=32, seed=0):
    """Check ||Y||_w <= C_target * Q2[w] ||X||_w for a subordinate pair.

    The left side is certified by duality: ||Y||_w equals the supremum of
    E<Y_inf, Z_inf> / ||Z||_u over test martingales, attained at
    Z_inf = Y_inf w; the supremum is searched over that extremal choice plus
    random test functions and cross-checked against the direct norm.
    """
    sub = check_subordination(X, Y)
    if not sub.ok:
        raise SubordinationError(f"Y is not subordinate to X (first violation at "
                                 f"{sub.first_violation})")
    if Y.depth != w.depth:
        raise InvalidInputError("martingale and weight depths differ")
    u = w.inverse()
    lhs = weighted_norm(Y, w)
    q2 = a2_characteristic(w)
    rhs = q2 * weighted_norm(X, w)

    # test martingales enter only through their leaves
    rng = np.random.default_rng(seed)
    candidates = [Y.leaves * w.leaf_values[:, None]]
    candidates += [rng.standard_normal(Y.leaves.shape) for _ in range(n_test)]
    dual = 0.0
    for z in candidates:
        nz = terminal_norm(z, u.leaf_values)
        if nz == 0.0:
            continue
        pairing = abs(float(np.mean(np.sum(Y.leaves * z, axis=1))))
        dual = max(dual, pairing / nz)

    return {
        "lhs": lhs,
        "rhs": rhs,
        "ratio": lhs / rhs if rhs > 0.0 else (0.0 if lhs == 0.0 else np.inf),
        "dual_lhs": dual,
        "duality_gap": abs(dual - lhs),
        "q2": q2,
        "pass": lhs <= C_target * rhs + MARGIN_TOL,
    }


def projection_consistency(X, Y, w: WeightTree, d_sub: int):
    """Finite-dimensional projection comparison: norms, bilinear forms and the
    dissipation sum of the first-d' coordinate projections are dominated by
    (and increase monotonically to) their full-dimension values.
    """
    if not 1 <= d_sub <= X.dim:
        raise InvalidInputError(f"d_sub must be in [1, {X.dim}]")
    full_bil = bilinear_form(Y.project(Y.dim), X.project(X.dim))
    rows = []
    prev = None
    monotone = True
    for d in range(1, X.dim + 1):
        Xp, Yp = X.project(d), Y.project(min(d, Y.dim))
        row = {
            "d_sub": d,
            "norm_X_w": weighted_norm(Xp, w),
            "norm_Y_w": weighted_norm(Yp, w),
            "bilinear": bilinear_form(Yp, Xp),
            "dissipation": _dissipation_sum(Xp, Yp),
        }
        # residual-based bound: |<dY^m,dZ^m>| <= |<dY,dZ>| + |dY_perp||dZ_perp|
        tail_y = _tail_norm(Y, min(d, Y.dim))
        tail_x = _tail_norm(X, d)
        row["bilinear_bound"] = full_bil + tail_y * tail_x
        row["bilinear_ok"] = row["bilinear"] <= row["bilinear_bound"] + MARGIN_TOL
        if prev is not None:
            monotone &= (row["norm_X_w"] >= prev["norm_X_w"] - MARGIN_TOL
                         and row["norm_Y_w"] >= prev["norm_Y_w"] - MARGIN_TOL
                         and row["dissipation"] >= prev["dissipation"] - MARGIN_TOL)
        prev = row
        rows.append(row)
    exact_at_full = (abs(rows[-1]["bilinear"] - full_bil) <= 1e-12 * max(1.0, full_bil))
    return {
        "rows": rows,
        "requested": rows[d_sub - 1],
        "monotone": bool(monotone),
        "bounds_ok": all(r["bilinear_ok"] for r in rows),
        "exact_at_full_dim": bool(exact_at_full),
        "pass": bool(monotone and all(r["bilinear_ok"] for r in rows) and exact_at_full),
    }


def _tail_norm(M: DyadicMartingale, d):
    """Unweighted L2 bracket norm of the coordinates beyond d."""
    if d >= M.dim:
        return 0.0
    tail = DyadicMartingale([lev[:, d:] for lev in M.levels])
    return float(np.sqrt(np.mean(np.sum(tail.leaves ** 2, axis=1))))


def _dissipation_sum(X, Z):
    total = 0.0
    for k, (dx, dz) in enumerate(zip(X.increments(), Z.increments()), start=1):
        total += float(np.sum(np.linalg.norm(dx, axis=1)
                              * np.linalg.norm(dz, axis=1))) * 2.0 ** (-k)
    return total
