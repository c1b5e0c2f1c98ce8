"""A2 weights on finite dyadic filtrations, and the dyadic tree layout.

The layout is defined here once: node i of level k has the children 2i and
2i+1, and each node of level k has mass 2^-k, so a node is the average of
its children and a level's expectation is the mean of its entries.  Other
modules reach it through the four helpers below; only the two sharpness
kernels keep their own spellings, as the fast path of the sign search:
T_sigma's even/odd step-2 slices and the sign ascent's (node, child, leaves)
view `reshape(2 ** k, 2, -1)`.  Node values carry their vector coordinates on
the last axis, and every module sums or measures them there with `row_sum`
and `row_norm`.

A weight is a positive function on the 2^n leaves of a depth-n dyadic tree,
identified with the closure w_infty of the martingale of its conditional
averages.  The inverse weight u is averaged from the leaf reciprocals 1/w,
never as the reciprocal of an average: the A2 product needs true conditional
expectations of w^-1.

On a purely atomic finite filtration every bounded stopping time's
conditional expectation is a node average, so the essential supremum over
adapted stopping times in the A2 characteristic equals the maximum of
<w>_I <u>_I over tree nodes I; that is how `a2_characteristic` computes it.
"""

from __future__ import annotations

import io

import numpy as np

from .errors import DomainError, InvalidInputError


class WeightTree:
    """Positive weight on a depth-n dyadic tree with its conditional averages."""

    def __init__(self, leaf_values):
        leaves = np.asarray(leaf_values, dtype=float).copy()
        if leaves.ndim != 1 or len(leaves) == 0 or (len(leaves) & (len(leaves) - 1)) != 0:
            raise InvalidInputError("leaf count must be a positive power of two")
        if not np.isfinite(leaves).all():
            raise InvalidInputError("non-finite leaf values")
        if (leaves <= 0.0).any():
            raise InvalidInputError("weight leaves must be positive")
        self.depth = int(np.log2(len(leaves)))
        self.leaf_values = leaves
        self.node_avg_w = dyadic_averages(leaves)
        self.node_avg_u = dyadic_averages(1.0 / leaves)


def child_pairs(level):
    """View of a level (first axis 2^k) with the children 2i and 2i+1 of
    node i side by side on a new axis 1."""
    return level.reshape((-1, 2) + level.shape[1:])


def parent_average(level):
    """The level above: each node the average of its two children."""
    pairs = child_pairs(level)
    return 0.5 * (pairs[:, 0] + pairs[:, 1])


def pair_increments(levels):
    """Child minus parent for k = 1..n, each (2^(k-1), 2, ...): row i holds
    the increments of node i's two children.  Lazy, so that a caller going
    level by level holds one level's increments at a time: they are made in
    `_less_parents`, so the suspended generator keeps no reference to them."""
    for k in range(1, len(levels)):
        yield child_pairs(_less_parents(levels[k], levels[k - 1]))


def _less_parents(level, parents):
    """level minus its parents, spread to their children by a repeat and
    subtracted in place: broadcasting them against the pair view runs
    numpy's inner loop over the few vector coordinates only, 2-4x slower on
    (2^16, 2) levels."""
    inc = np.repeat(parents, 2, axis=0)
    np.subtract(level, inc, out=inc)
    return inc


def levels_from_increments(root, increments):
    """Node values from the root level and pair-shaped increments: each
    child is its parent plus its increment (spread as in `pair_increments`)."""
    levels = [root]
    for inc in increments:
        level = np.repeat(levels[-1], 2, axis=0)
        level += inc.reshape(level.shape)
        levels.append(level)
    return levels


# numpy sums a reduction of fewer terms left to right; from this many on it
# sums pairwise, an order that column additions would not reproduce
PAIRWISE_MIN = 8


def row_sum(v, lead=None):
    """Sum over the last axis, bit for bit `np.sum(v, axis=-1)`; with a
    scalar `lead`, bit for bit that sum over the rows with `lead` prepended
    as a first column, which is never built.

    Node values carry their 1-4 vector coordinates on the last axis, and
    numpy reduces such short rows one row per inner-loop call, 6-12x slower
    than adding whole columns on (2^16, 2-3) levels.  So the columns are
    added left to right onto +0.0, the order numpy itself uses below
    `PAIRWISE_MIN` terms (the +0.0 start is why a row of -0.0 sums to
    +0.0); longer or empty rows go to numpy, with the lead column built.
    """
    d = v.shape[-1]
    if not 0 < d < PAIRWISE_MIN - (lead is not None):
        if lead is not None:
            v = np.concatenate((np.full(v.shape[:-1] + (1,), float(lead)), v), axis=-1)
        return np.sum(v, axis=-1)
    out = v[..., 0] + (0.0 if lead is None else lead + 0.0)
    for j in range(1, d):
        out += v[..., j]
    return out


def row_norm(v, lead=None):
    """Euclidean norm over the last axis, bit for bit
    `np.linalg.norm(v, axis=-1)` (the root of the summed squares); with a
    scalar `lead`, the norm of the rows with `lead` prepended as a first
    coordinate, as `row_sum` takes it."""
    return np.sqrt(row_sum(v * v, None if lead is None else lead * lead))


def dyadic_averages(leaves):
    """Node averages of a leaf array (first axis of length 2^n), root first."""
    levels = [leaves]
    cur = leaves
    while len(cur) > 1:
        cur = parent_average(cur)
        levels.append(cur)
    return levels[::-1]   # levels[k] has 2^k entries


def a2_characteristic(w: WeightTree) -> float:
    """Q2[w] = max over nodes of <w>_I <u>_I (>= 1 by Jensen).

    The maximum is clamped from below at 1.0: any dip under 1 is pure float
    roundoff of the reciprocal leaves, never a property of the weight.
    """
    best = max(float((wk * uk).max()) for wk, uk in zip(w.node_avg_w, w.node_avg_u))
    return max(best, 1.0)


def truncate_above(w: WeightTree, a: float) -> WeightTree:
    """Cut the weight from above at level a: leaf-wise min(w, a).

    Never increases the A2 characteristic.
    """
    if not (np.isfinite(a) and a > 0.0):
        raise DomainError(f"truncation level must be positive, got {a}")
    return WeightTree(np.minimum(w.leaf_values, a))


def truncate_two_sided(w: WeightTree, a: float) -> WeightTree:
    """Clamp the weight into [1/a, a] for a >= 1.

    This is the composition: truncate above at a, invert, truncate above at
    a, invert.  The min/max identity 1/min(1/v, a) = max(v, 1/a) collapses
    the composition to a single clamp, which is how it is evaluated (the only
    rounding is the constant 1/a; leaves away from the cut are exact copies).
    Never increases the A2 characteristic.
    """
    if not (np.isfinite(a) and a >= 1.0):
        raise DomainError(f"two-sided truncation needs a >= 1, got {a}")
    return WeightTree(np.clip(w.leaf_values, 1.0 / a, a))


def power_weight_family(delta: float, depth: int) -> WeightTree:
    """Dyadic discretization of t^delta on [0, 1): leaf k holds the exact
    average 2^n * integral of t^delta over [k 2^-n, (k+1) 2^-n).

    Requires delta > -1 for integrability.  The characteristic equals
    1/(1 - delta^2) up to discretization at the leftmost leaf, so it blows up
    as delta -> -1 and is nondecreasing in depth for fixed delta < 0.
    """
    if not (np.isfinite(delta) and delta > -1.0):
        raise DomainError(f"power weight needs delta > -1, got {delta}")
    if depth < 0:
        raise InvalidInputError("depth must be nonnegative")
    n = 2 ** depth
    k = np.arange(n, dtype=float)
    e = delta + 1.0
    leaves = 2.0 ** depth * (np.power(k + 1.0, e) - np.power(k, e)) * 2.0 ** (-depth * e) / e
    return WeightTree(leaves)


def delta_for_characteristic(q2_target: float) -> float:
    """delta < 0 with 1/(1 - delta^2) = q2_target, the power-family inverse map."""
    if q2_target < 1.0:
        raise DomainError("characteristic target must be >= 1")
    return -float(np.sqrt(1.0 - 1.0 / q2_target))


# ---------------------------------------------------------------------------
# serialization: header line "depth n", then 2^n leaves, one repr per line
# ---------------------------------------------------------------------------

def dumps(w: WeightTree) -> str:
    out = io.StringIO()
    out.write(f"depth {w.depth}\n")
    for v in w.leaf_values:
        out.write(repr(float(v)) + "\n")
    return out.getvalue()


def loads(text: str) -> WeightTree:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("depth "):
        raise InvalidInputError("weight file must start with a 'depth n' header")
    try:
        depth = int(lines[0].split()[1])
        vals = np.array([float(ln) for ln in lines[1:]])
    except (IndexError, ValueError) as exc:
        raise InvalidInputError(f"malformed weight file: {exc}") from None
    # compare bit lengths: 2 ** depth of an unchecked depth may not fit in memory
    n = len(vals)
    if depth < 0 or n & (n - 1) or n.bit_length() != depth + 1:
        raise InvalidInputError(
            f"weight file declares depth {depth} but carries {len(vals)} leaves")
    return WeightTree(vals)


def save(w: WeightTree, path):
    with open(path, "w") as fh:
        fh.write(dumps(w))


def load(path) -> WeightTree:
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"weight file is not text: {exc}") from None
    return loads(text)
