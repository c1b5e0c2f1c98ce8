"""Vector-valued martingales on finite dyadic filtrations.

A depth-n dyadic martingale is stored as its node values: level k holds a
(2^k, d) array, level k values being the averages of their two children, so
the martingale property is exact by construction.  Increments df_k at level
k >= 1 are child minus parent; the two children of a node carry opposite
increments.  The tree layout comes from `bellsub.weights`.  Discrete
differential subordination of Y to X reduces to |Y_0| <= |X_0| together with
|dY_k| <= |dX_k| at every node: the running sums of |dX|^2 - |dY|^2 along
any path are then nonnegative and nondecreasing.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SubordinationError
from .weights import (WeightTree, dyadic_averages, levels_from_increments,
                      pair_increments, parent_average, row_norm, row_sum)

# relative slack for |dY| <= |dX| checks: rotation-built pairs are
# norm-preserving only up to float rounding
SUBORDINATION_RTOL = 1e-9


class DyadicMartingale:
    """Node values of an H-valued martingale on a depth-n dyadic filtration."""

    def __init__(self, levels):
        self.levels = [np.asarray(a, dtype=float) for a in levels]
        for k, lev in enumerate(self.levels):
            if lev.ndim != 2 or lev.shape[0] != 2 ** k:
                raise InvalidInputError(f"level {k} must have shape (2^{k}, d)")
            if lev.shape[1] != self.levels[0].shape[1]:
                raise InvalidInputError("all levels must share the vector dimension")
        self.depth = len(self.levels) - 1
        self.dim = self.levels[0].shape[1]

    @staticmethod
    def from_leaves(leaves) -> "DyadicMartingale":
        leaves = np.asarray(leaves, dtype=float)
        if leaves.ndim == 1:
            leaves = leaves[:, None]
        return DyadicMartingale(dyadic_averages(leaves))

    @property
    def leaves(self):
        return self.levels[-1]

    @property
    def initial(self):
        return self.levels[0][0]

    def increments(self):
        """df per level: list over k = 1..n of (2^k, d) arrays, child - parent."""
        return [inc.reshape(-1, self.dim) for inc in pair_increments(self.levels)]

    def project(self, d_sub: int) -> "DyadicMartingale":
        """Projection onto the first d_sub coordinates."""
        if not 1 <= d_sub <= self.dim:
            raise InvalidInputError(f"d_sub must be in [1, {self.dim}]")
        return DyadicMartingale([lev[:, :d_sub] for lev in self.levels])

    def scaled(self, c: float) -> "DyadicMartingale":
        return DyadicMartingale([c * lev for lev in self.levels])


@dataclass
class SubordinatePair:
    """Verdict of `check_subordination` on a pair (X, Y)."""

    ok: bool
    first_violation: tuple | None   # (level, node_index) or None


@dataclass
class SimConfig:
    """Knobs for randomized martingale experiments."""

    depth: int = 8
    dim: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.depth < 0 or self.depth > 20:
            raise InvalidInputError("depth must lie in [0, 20] for exhaustive tree work")
        if self.dim < 1:
            raise InvalidInputError("dim must be >= 1")


def random_martingale(cfg: SimConfig, rng=None) -> DyadicMartingale:
    """Martingale with i.i.d. standard normal leaf coordinates."""
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    leaves = rng.standard_normal((2 ** cfg.depth, cfg.dim))
    return DyadicMartingale.from_leaves(leaves)


def constant_multiplier(depth: int, value: float):
    """(sigma0, per-level sigma arrays) all equal to value."""
    return float(value), [np.full(2 ** k, float(value)) for k in range(depth)]


def transform(X: DyadicMartingale, sigma, sigma0=1.0) -> DyadicMartingale:
    """Predictable multiplier: dY at level k+1 is sigma[k] (per parent node)
    times dX, and Y_0 = sigma0 X_0.  Requires |sigma| <= 1 throughout;
    the result is differentially subordinate to X by construction.
    """
    sigma = [np.asarray(s, dtype=float) for s in sigma]
    if len(sigma) != X.depth:
        raise InvalidInputError(f"need {X.depth} sigma levels, got {len(sigma)}")
    if abs(sigma0) > 1.0 or any((np.abs(s) > 1.0).any() for s in sigma):
        raise SubordinationError("|sigma| > 1 would break subordination")
    for k, s in enumerate(sigma):
        if s.shape != (2 ** k,):
            raise InvalidInputError(f"sigma level {k} must have 2^{k} entries")
    dY = (s[:, None, None] * dX for s, dX in zip(sigma, pair_increments(X.levels)))
    return DyadicMartingale(levels_from_increments(sigma0 * X.levels[0], dY))


def rotation_transform(X: DyadicMartingale, rng) -> DyadicMartingale:
    """Subordinate pair that is not a multiplier: each parent node carries a
    random orthogonal matrix applied to both children's increments (and the
    root value).  Norm-preserving, hence subordinate, but genuinely
    non-scalar in dimension >= 2.  The rotations of a level are drawn and
    factored in one batch, in node order.
    """
    d = X.dim
    q0 = _random_orthogonal(d, rng)
    def rotated(dX):
        q, r = np.linalg.qr(rng.standard_normal((len(dX), d, d)))
        rots = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
        return np.einsum("pij,pcj->pci", rots, dX)

    return DyadicMartingale(levels_from_increments(X.levels[0] @ q0.T,
                                                   map(rotated, pair_increments(X.levels))))


def _random_orthogonal(d, rng):
    m = rng.standard_normal((d, d))
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


def check_subordination(X: DyadicMartingale, Y: DyadicMartingale) -> SubordinatePair:
    """|Y_0| <= |X_0| and |dY_k| <= |dX_k| node-wise (up to rotation-level
    float slack); reports the first violating node in (level, index) order.
    """
    if X.depth != Y.depth:
        raise InvalidInputError("martingales must share the filtration depth")
    n0x = np.linalg.norm(X.initial)
    n0y = np.linalg.norm(Y.initial)
    if n0y > n0x * (1.0 + SUBORDINATION_RTOL) + 1e-15:
        return SubordinatePair(ok=False, first_violation=(0, 0))
    for k, (dx, dy) in enumerate(zip(X.increments(), Y.increments()), start=1):
        nx, ny = row_norm(dx), row_norm(dy)
        lev_ok = ny <= nx * (1.0 + SUBORDINATION_RTOL) + 1e-15
        if not lev_ok.all():
            return SubordinatePair(ok=False, first_violation=(k, int(np.argmin(lev_ok))))
    return SubordinatePair(ok=True, first_violation=None)


def weighted_norm(X: DyadicMartingale, w: WeightTree) -> float:
    """||X||_{2,w} evaluated at the terminal time: sqrt(mean |X_inf|^2 w_inf).

    On a finite tree sup_t ||X_t||_{2,w} is attained at t = n by conditional
    Jensen, so the terminal value is the norm.
    """
    if X.depth != w.depth:
        raise InvalidInputError("martingale and weight depths differ")
    return terminal_norm(X.leaves, w.leaf_values)


def terminal_norm(leaves, weights) -> float:
    """sqrt(mean |leaf|^2 weight) over (2^n, d) leaves and 2^n leaf weights."""
    return float(np.sqrt(np.mean(row_sum(leaves * leaves) * weights)))


def bilinear_form(Y: DyadicMartingale, Z: DyadicMartingale) -> float:
    """E sum_k |<dY_k, dZ_k>| including the time-0 term |<Y_0, Z_0>|.

    The discrete total variation of the covariation bracket [Y, Z].
    """
    if Y.depth != Z.depth or Y.dim != Z.dim:
        raise InvalidInputError("bilinear form needs matching depth and dimension")
    total = abs(float(Y.initial @ Z.initial))
    for dy, dz in zip(Y.increments(), Z.increments()):
        total += float(np.mean(np.abs(row_sum(dy * dz))))
    return total


def unweighted_norm(X: DyadicMartingale) -> float:
    return terminal_norm(X.leaves, 1.0)


# ---------------------------------------------------------------------------
# serialization: header "depth n dim d", node values level by level
# ---------------------------------------------------------------------------

def dumps(X: DyadicMartingale) -> str:
    out = io.StringIO()
    out.write(f"depth {X.depth} dim {X.dim}\n")
    for lev in X.levels:
        for row in lev:
            out.write(" ".join(repr(float(v)) for v in row) + "\n")
    return out.getvalue()


# a level must equal the average of its children to this relative slack:
# transforms rebuild levels from increments, exact only up to rounding
AVERAGE_RTOL = 1e-9


def loads(text: str) -> DyadicMartingale:
    """Parse `dumps` output; structural or numeric defects raise InvalidInputError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidInputError("empty martingale file")
    head = lines[0].split()
    try:
        if len(head) != 4 or head[0] != "depth" or head[2] != "dim":
            raise ValueError
        depth, dim = int(head[1]), int(head[3])
        if depth < 0 or dim < 1:
            raise ValueError
    except ValueError:
        raise InvalidInputError("martingale file must start with 'depth n dim d', "
                                "n >= 0, d >= 1") from None
    if len(lines) - 1 != 2 ** (depth + 1) - 1:
        raise InvalidInputError("node count does not match declared depth")
    try:
        rows = np.array([[float(v) for v in ln.split()] for ln in lines[1:]])
    except ValueError:
        raise InvalidInputError("node rows must hold numbers, as many on every row") from None
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise InvalidInputError("vector dimension does not match declared dim")
    if not np.isfinite(rows).all():
        raise InvalidInputError("non-finite node value")
    levels = [rows[2 ** k - 1:2 ** (k + 1) - 1] for k in range(depth + 1)]
    for k in range(depth):
        parent, children = levels[k], levels[k + 1]
        gap = np.abs(parent_average(children) - parent).max()
        scale = max(np.abs(children).max(), np.abs(parent).max())
        if gap > AVERAGE_RTOL * scale:
            raise InvalidInputError(f"level {k} is not the average of its children "
                                    f"(off by {gap:.3g})")
    return DyadicMartingale(levels)
