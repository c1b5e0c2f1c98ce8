"""Lower estimates for the growth of predictable-multiplier norms in the
A2 characteristic, on power weights.

For a weight w and test function f on the leaves, independent random signs
average to the weighted square-function form,

    E_sigma ||T_sigma f||_{2,w}^2 = <f>^2 <w> + sum_A (df_A)^2 2^-|A| <w>_A
                                  = S(f).

The search alternates two exact steps: for fixed sigma, T_sigma is linear
and self-adjoint in the unweighted inner product, so the best f is a
generalized eigenvector; for fixed f, coordinate ascent flips single +-1
multipliers while the norm grows.  A sign pattern that no single flip
improves keeps every cross term of ||T_sigma f||^2 nonnegative on the sum,
so it ends at least at the average S(f) of its f.  The search starts from
signs that alternate by generation and draws nothing: an ascent from random
signs never ends above the one from that start, and at depths 3 and 4 the
search meets the exhaustive supremum (tests/test_sharpness.py).  The
reported ratios are realized by explicit (sigma, f) pairs, so they are
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
# the logs of the steep Q2 must span more than this to fit a slope: a
# narrower span fits a line through rounding
_MIN_LOG_SPAN = float(np.sqrt(np.finfo(float).eps))
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

    At level k+1 the leaves are viewed as (2^k, 2, span) blocks, one row per
    child node, and that level's pair-shaped increments broadcast along the
    rows; no leaf-size copy of an increment is made."""
    n = int(np.log2(len(f)))
    lev = dyadic_averages(f)
    dfs = [df[:, :, None] for df in pair_increments(lev)]
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
            yk = y.reshape(2 ** k, 2, -1)
            cur = sigs[k][:, None, None] * dfk
            terms = (w.reshape(yk.shape) * (yk - cur) * dfk).reshape(2 ** k, -1)
            corr = row_sum(terms)
            new = np.where(corr >= 0.0, 1.0, -1.0)
            if not np.array_equal(new, sigs[k]):
                y = (yk - cur + new[:, None, None] * dfk).ravel()
                sigs[k] = new
                changed = True
        if not changed:
            break
    return sig0, sigs


def worst_ratio(w: WeightTree):
    """Best realized ||T_sigma f||_{2,w} / ||f||_{2,w} found by the search.

    Returns (ratio, details) with the achieved (sigma, f) ratio; the search
    starts from signs that alternate by generation (sigma0 = +1, then -1, +1,
    ... on levels 1, 2, ...), then alternates exact f-steps with sign ascent
    for at most ROUNDS rounds.  It draws nothing.  The search ends when a
    round does not improve the ratio, or when its ascent leaves the signs as
    they were: the next f-step would build the same operator, and ARPACK,
    started from ones, returns the same f bit for bit.  `rounds_used` counts
    the f-steps run.
    """
    wl = w.leaf_values
    n = w.depth
    if n == 0:
        # T_sigma f = sigma0 f on a single leaf: the trivial pair is optimal
        return 1.0, {"rounds_used": 0, "f": np.ones(1), "sigma0": 1.0, "sigma": []}
    sig0, sigs = 1.0, [np.full(2 ** k, (-1.0) ** (k + 1)) for k in range(n)]
    best, fcur = 0.0, None
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
    q2s = np.array([a2_characteristic(w) for w in ws])
    steep = q2s > _FLAT_Q2
    logq = np.log(q2s[steep])
    if logq.size == 0 or np.ptp(logq) <= _MIN_LOG_SPAN:
        raise ConfigError("sharpness delta grid needs Q2 > 1 values whose logs span "
                          f"more than {_MIN_LOG_SPAN:.2g} to fit a slope")
    rows = []
    for d, w, q2 in zip(deltas, ws, q2s):
        ratio, _ = worst_ratio(w)
        rows.append({"delta": float(d), "depth": depth, "Q2": float(q2),
                     "worst_ratio": ratio})
    ratios = np.array([r["worst_ratio"] for r in rows])
    slope = float(np.polyfit(logq, np.log(ratios[steep]), 1)[0])
    return rows, slope


def rows_to_csv(rows, slope) -> str:
    out = io.StringIO()
    out.write("delta,depth,Q2,worst_ratio\n")
    for r in rows:
        out.write(f"{r['delta']!r},{r['depth']},{r['Q2']!r},{r['worst_ratio']!r}\n")
    out.write(f"# slope {slope!r}\n")
    return out.getvalue()
