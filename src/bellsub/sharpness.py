"""Lower estimates for the growth of predictable-multiplier norms in the
A2 characteristic, on power weights.

For a weight w and test function f on the leaves, independent random signs
average to the weighted square-function form,

    E_sigma ||T_sigma f||_{2,w}^2 = <f>^2 <w> + sum_A (df_A)^2 2^-|A| <w>_A,

so the best test function for that average is a generalized eigenvector of a
PSD quadratic form; an explicit sign choice at least as good as the average
is then found by coordinate ascent over the +-1 multipliers, started from
all-ones signs and alternating with exact re-optimization of f for the
current signs (for fixed sigma, T_sigma is linear and self-adjoint in the
unweighted inner product).  The search draws nothing: an ascent from random
signs never ends above the one from all ones (tests/test_sharpness.py).
The reported ratios are realized by explicit (sigma, f) pairs, so they are
honest lower bounds for the supremum; the search cannot certify the exact
supremum.
"""

from __future__ import annotations

import io

import numpy as np

from .errors import ConfigError, DomainError, InvalidInputError
from .weights import (WeightTree, a2_characteristic, dyadic_averages, pair_increments,
                      power_weight_family, row_sum)

# weights with Q2 at or below this are flat and carry no slope information
_FLAT_Q2 = 1.0 + 1e-12
# search caps: f-step rounds of `worst_ratio`, sign sweeps per ascent
ROUNDS = 6
SWEEPS = 8


def _apply_tsigma(f, sig0, sigs):
    """Leaf values of T_sigma f; sigs[k] has 2^k entries acting on level k+1.

    Built from coarse to fine, each level at its own resolution: the even
    and odd children c of node i get y_k[2i+c] = y_(k-1)[i] +
    sigs[k-1][i] (lev_k[2i+c] - lev_(k-1)[i]).  One application costs
    O(2^n), and each leaf sees its additions in root-to-leaf order.
    """
    lev = dyadic_averages(f)
    y = np.array([sig0 * lev[0][0]])
    for k in range(1, len(lev)):
        parent, sig = lev[k - 1], sigs[k - 1]
        child = np.empty(2 ** k)
        child[0::2] = y + sig * (lev[k][0::2] - parent)
        child[1::2] = y + sig * (lev[k][1::2] - parent)
        y = child
    return y


def _wnorm2(vals, w):
    return float(np.mean(vals * vals * w))


def _top_eigvec(apply, w_leaves):
    """Top generalized eigenvector of the symmetric operator `apply` against
    D = diag(w_leaves)/2^n: ARPACK on D^-1/2 apply D^-1/2, mapped back."""
    # scipy is imported where it is called: tests/test_import_guard.py
    from scipy.sparse.linalg import LinearOperator, eigsh
    sqD = np.sqrt(w_leaves / float(len(w_leaves)))
    op = LinearOperator((len(w_leaves),) * 2,
                        matvec=lambda g: apply(g / sqD) / sqD, dtype=float)
    _, vecs = eigsh(op, k=1, which="LA", maxiter=5000, tol=1e-10,
                    v0=np.ones(len(w_leaves)))
    return vecs[:, 0] / sqD


def _sqfun_operator(w_leaves):
    """Matvec of the weighted square-function form S(f) = <f, N f>.

    The per-level factors 2^-k <w>_k are fixed by the weight and computed
    once.  Each application builds N f from coarse to fine at every level's
    resolution, so it costs O(2^n).
    """
    n = int(np.log2(len(w_leaves)))
    wavg = dyadic_averages(w_leaves)
    coef = [2.0 ** (-k) * wavg[k] for k in range(n + 1)]

    def n_apply(f):
        lev = dyadic_averages(f)
        grad = np.array([lev[0][0] * wavg[0][0] / 2.0 ** n])
        for k in range(1, n + 1):
            parent = lev[k - 1]
            t0 = coef[k][0::2] * (lev[k][0::2] - parent)
            t1 = coef[k][1::2] * (lev[k][1::2] - parent)
            tp = (t0 + t1) * 2.0 ** (-(n - k + 1))
            child = np.empty(2 ** k)
            child[0::2] = grad + t0 * 2.0 ** (-(n - k)) - tp
            child[1::2] = grad + t1 * 2.0 ** (-(n - k)) - tp
            grad = child
        return grad

    return n_apply


def _sqfun_eigen_f(w_leaves):
    """Maximizer of the Rademacher-averaged quotient (weighted square function)."""
    return _top_eigvec(_sqfun_operator(w_leaves), w_leaves)


def _best_f_given_sigma(w_leaves, sig0, sigs):
    """Exact top test function for fixed signs: generalized eigenvector of
    T_sigma^T W T_sigma against W (T_sigma self-adjoint unweighted)."""
    D = w_leaves / float(len(w_leaves))
    return _top_eigvec(lambda f: _apply_tsigma(D * _apply_tsigma(f, sig0, sigs), sig0, sigs),
                       w_leaves)


def _ascend_sigma(f, w, sig0, sigs):
    """Coordinate ascent over the +-1 multipliers; each node takes the sign of
    its increment's weighted correlation with the rest of the transform, for
    at most SWEEPS sweeps.

    At level k+1 the leaves are viewed as (2^(k+1), span) blocks, one row per
    child node, and that level's increments broadcast along the rows; no
    leaf-size copy of an increment is made."""
    n = int(np.log2(len(f)))
    lev = dyadic_averages(f)
    dfs = [df.reshape(-1, 1) for df in pair_increments(lev)]
    y = _apply_tsigma(f, sig0, sigs)
    for _ in range(SWEEPS):
        changed = False
        rest = y - sig0 * lev[0][0]
        new0 = 1.0 if float(np.mean(w * rest)) * lev[0][0] >= 0.0 else -1.0
        if new0 != sig0:
            y = y + (new0 - sig0) * lev[0][0]
            sig0 = new0
            changed = True
        for k in range(n):
            dfk = dfs[k]
            yk = y.reshape(2 ** (k + 1), -1)
            cur = np.repeat(sigs[k], 2)[:, None] * dfk
            terms = (w.reshape(yk.shape) * (yk - cur) * dfk).reshape(2 ** k, -1)
            corr = row_sum(terms)
            new = np.where(corr >= 0.0, 1.0, -1.0)
            if not np.array_equal(new, sigs[k]):
                y = (yk - cur + np.repeat(new, 2)[:, None] * dfk).ravel()
                sigs[k] = new
                changed = True
        if not changed:
            break
    return sig0, sigs


def worst_ratio(w: WeightTree):
    """Best realized ||T_sigma f||_{2,w} / ||f||_{2,w} found by the search.

    Returns (ratio, details) with the achieved (sigma, f) ratio; the search
    starts from the square-function eigenfunction and all-ones signs, then
    alternates exact f-steps with sign ascent for at most ROUNDS rounds.  It
    draws nothing.  The search ends when a round does not improve the ratio,
    or when its ascent leaves the signs as they were: the next f-step would
    build the same operator, and ARPACK, started from ones, returns the same
    f bit for bit.  `rounds_used` counts the f-steps run.
    """
    wl = w.leaf_values
    n = w.depth
    if n == 0:
        # T_sigma f = sigma0 f on a single leaf: the trivial pair is optimal
        return 1.0, {"rounds_used": 0, "f": np.ones(1), "sigma0": 1.0, "sigma": []}
    fcur = _sqfun_eigen_f(wl)
    sig0, sigs = _ascend_sigma(fcur, wl, 1.0, [np.ones(2 ** k) for k in range(n)])
    best = _wnorm2(_apply_tsigma(fcur, sig0, sigs), wl) / _wnorm2(fcur, wl)
    used = 0
    for used in range(1, ROUNDS + 1):
        fnew = _best_f_given_sigma(wl, sig0, sigs)
        old0, old = sig0, list(sigs)
        sig0, sigs = _ascend_sigma(fnew, wl, sig0, sigs)
        val = _wnorm2(_apply_tsigma(fnew, sig0, sigs), wl) / _wnorm2(fnew, wl)
        if val <= best * (1.0 + 1e-10):
            break
        best, fcur = val, fnew
        if sig0 == old0 and all(map(np.array_equal, sigs, old)):
            # the next f-step would rebuild this operator and return fnew again
            break
    return float(np.sqrt(best)), {"rounds_used": used, "f": fcur,
                                  "sigma0": sig0, "sigma": sigs}


def sharpness_experiment(delta_grid, depth, seed=0):
    """Table of (delta, depth, Q2, worst_ratio) over the power-weight family,
    plus the least-squares slope of log worst_ratio against log Q2.

    `seed` is ignored: the search draws nothing.  It stays in the signature
    so that callers which still pass it keep working.
    """
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.size == 0:
        raise ConfigError("sharpness delta grid is empty")
    if (deltas <= -1.0).any() or (deltas > 0.0).any():
        raise DomainError("sharpness deltas must lie in (-1, 0]")
    if depth > 14:
        raise InvalidInputError("sharpness experiment capped at depth 14")
    ws = [power_weight_family(float(d), depth) for d in deltas]
    q2s = [a2_characteristic(w) for w in ws]
    if sum(q > _FLAT_Q2 for q in q2s) < 2:
        raise ConfigError("sharpness delta grid needs two weights with Q2 > 1 "
                          "to fit a slope")
    rows = []
    for d, w, q2 in zip(deltas, ws, q2s):
        ratio, _ = worst_ratio(w)
        rows.append({"delta": float(d), "depth": depth, "Q2": q2,
                     "worst_ratio": ratio})
    slope = fitted_slope(rows)
    return rows, slope


def fitted_slope(rows):
    pts = [(r["Q2"], r["worst_ratio"]) for r in rows if r["Q2"] > _FLAT_Q2]
    if len(pts) < 2:
        return float("nan")
    lq = np.log([p[0] for p in pts])
    lr = np.log([p[1] for p in pts])
    return float(np.polyfit(lq, lr, 1)[0])


def rows_to_csv(rows, slope) -> str:
    out = io.StringIO()
    out.write("delta,depth,Q2,worst_ratio\n")
    for r in rows:
        out.write(f"{r['delta']!r},{r['depth']},{r['Q2']!r},{r['worst_ratio']!r}\n")
    out.write(f"# slope {slope!r}\n")
    return out.getvalue()
