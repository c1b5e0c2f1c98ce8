"""Oracles shared by the test modules, in two groups.

The independent oracles compute what the library computes, another way.
`brute_force_h4` maximizes H4's inner function by golden-section search.
`exact_q2_scaled` and `q2_not_increased*` compare A2 characteristics in
exact big-integer arithmetic over the float leaf values.  `sqfun_form`,
`sqfun_rayleigh` and `signed_transform` take node means by reshaping the
leaf vector; `sqfun_norm_dense` (depth <= 8) and
`exhaustive_multiplier_norm` (depth <= 4, every sign) build dense
conditional-expectation matrices; `repeat_sqfun_operator`, the leaf-size
square-function matvec, gives criterion 8 its ||S||_w.  The direction
banks (`direction_bank`, `split_directions`, `orthant_directions`) are the
sampled searches that the exact ellipse and copositivity certificates
replaced.  `valid_convolution` is scipy.signal's linear convolution, which
the library no longer imports.  `random_dual_ratio` searches random test
martingales for the dual extremal Z = Y w, and `random_start_ratio` random
sign starts for the sharpness search.  `qr_rotation` and
`rotation_transform_per_node` draw and QR-factor one Gaussian matrix per
node with `np.linalg.qr`, against the batched draws and the 2x2
Householder arithmetic of `rotation_transform`.

The kept references are verbatim copies of library code that a refactor
replaced.  Each is the only bit-for-bit pin of its successor on some
inputs, which no golden runs and no independent oracle matches to the bit;
the comment above each names them:

* `allocating_best_shift`, of `certify._best_shift`;
* `interpolator_composite_one_leg_margins`, of
  `mollify.composite_one_leg_margins`;
* `repeat_apply_tsigma` and `repeat_ascend_sigma`, of the per-level
  sharpness kernels;
* `repeat_increments`, `repeat_transform`, `mass_bilinear_form` and
  `mass_dissipation_sum`, of the pair layout of `bellsub.weights` and of
  `transform`, `bilinear_form` and `estimates._dissipation_sum`;
* `uncropped_bump_kernel`, of the cropped `mollify.bump_kernel`;
* `with_anchor`, the anchored martingale X^a = (a, X) that the telescope
  once built, of its virtual anchor coordinate.
"""

from math import gcd

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import eigh
from scipy.signal import fftconvolve

from bellsub.bellman import b4_batch, domain_masks, evaluate_batch, kn_of_t, one_leg_margin
from bellsub.coefficients import DEFAULT_COEFFICIENTS
from bellsub.errors import ConfigError, InvalidInputError, SubordinationError
from bellsub.martingales import DyadicMartingale
from bellsub.weights import dyadic_averages, row_sum


def brute_force_h4(a, b, r, s, k, iters=220):
    """sup over lam > 0 of a^2/(r + lam k) + b^2/(s + k/lam), vectorized;
    golden-section on log lam checked against both boundary limits."""
    a, b, r, s, k = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                          for v in (a, b, r, s, k)))

    def beta(loglam):
        lam = np.exp(loglam)
        return a * a / (r + lam * k) + b * b / (s + k / lam)

    lo = np.full(a.shape, -26.0)
    hi = np.full(a.shape, 26.0)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = beta(c), beta(d)
    for _ in range(iters):
        left = fc >= fd
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        fc, fd = beta(c), beta(d)
    interior = beta(0.5 * (lo + hi))
    return np.maximum(interior, np.maximum(a * a / r, b * b / s))


def exact_q2_scaled(leaves):
    """Every node's <w>_I <u>_I as exact big-integer rationals.

    Returns (max over nodes of S_w S_u 4^level, denominator scale); the
    characteristic is the first entry over the second times a tree-wide
    constant, so cross-tree comparisons reduce to integer products.
    """

    def to_scaled_ints(vals):
        ratios = [float(v).as_integer_ratio() for v in vals]
        den = 1
        for _, d in ratios:
            den = den * d // gcd(den, d)
        return [n * (den // d) for n, d in ratios], den

    w_int, w_den = to_scaled_ints(leaves)
    u_int, u_den = to_scaled_ints([1.0 / float(v) for v in leaves])
    n = len(leaves).bit_length() - 1
    best = 0
    w_lev, u_lev = w_int, u_int
    for level in range(n, -1, -1):
        scale = 4 ** level
        for sw, su in zip(w_lev, u_lev):
            cand = sw * su * scale
            if cand > best:
                best = cand
        if level:
            w_lev = [w_lev[2 * i] + w_lev[2 * i + 1] for i in range(len(w_lev) // 2)]
            u_lev = [u_lev[2 * i] + u_lev[2 * i + 1] for i in range(len(u_lev) // 2)]
    return best, w_den * u_den


def q2_not_increased_exact(before, after):
    """Exact verdict on Q2[after] <= Q2[before] for float leaf vectors."""
    nb, db = exact_q2_scaled(before)
    na, da = exact_q2_scaled(after)
    return na * db <= nb * da


def q2_not_increased(before_leaves, after_leaves, before_q2, after_q2):
    """Fast float screen with exact big-integer adjudication inside the
    roundoff band; a genuine increase of any size is always detected."""
    if after_q2 <= before_q2 * (1.0 - 1e-9):
        return True
    if after_q2 > before_q2 * (1.0 + 1e-9):
        return False
    return q2_not_increased_exact(before_leaves, after_leaves)


def sqfun_form(f, w):
    """Weighted square-function form S(f) = sum_k ||E_k f - E_(k-1) f||_(2,w)^2
    over the levels k = 0..n of a depth-n dyadic tree (E_(-1) f = 0), with
    the node means taken by reshaping the leaf vector."""
    f = np.asarray(f, dtype=float)
    n = len(f).bit_length() - 1
    total, prev = 0.0, np.zeros_like(f)
    for k in range(n + 1):
        cur = np.repeat(f.reshape(2 ** k, -1).mean(axis=1), 2 ** (n - k))
        total += float(np.mean(w * (cur - prev) ** 2))
        prev = cur
    return total


def sqfun_rayleigh(f, w):
    """sqrt(S(f) / ||f||_(2,w)^2): a lower estimate of ||S||_w, attained at
    the top generalized eigenvector."""
    return float(np.sqrt(sqfun_form(f, w) / np.mean(w * np.asarray(f) ** 2)))


def sqfun_norm_dense(w):
    """||S||_w, the square root of the top eigenvalue of the S form against
    diag(w) / 2^n, from a dense generalized eigh (depth <= 8)."""
    w = np.asarray(w, dtype=float)
    n = len(w).bit_length() - 1
    if n > 8:
        raise ValueError("dense square-function oracle capped at depth 8")
    size = 2 ** n
    gram = np.diag(w) / size
    form = np.zeros((size, size))
    prev = np.zeros((size, size))
    for k in range(n + 1):
        block = 2 ** (n - k)
        cur = np.kron(np.eye(2 ** k), np.full((block, block), 1.0 / block))
        incr = cur - prev
        form += incr.T @ gram @ incr
        prev = cur
    top = eigh(form, gram, eigvals_only=True, subset_by_index=[size - 1, size - 1])
    return float(np.sqrt(top[0]))


def _any_perp(u):
    """Some unit vector orthogonal to each row of u, or u itself in dim 1."""
    n, d = u.shape
    if d == 1:
        return u.copy()
    v = np.zeros_like(u)
    v[:, 0] = -u[:, 1]
    v[:, 1] = u[:, 0]
    small = np.linalg.norm(v, axis=1) < 1e-12
    if small.any():
        v[small, 0] = 1.0
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def direction_bank(rng, n, d, xhat, yhat, n_random=64):
    """(n, n_random + 10, 2d+2) unit directions dV = (dx, dy, dr, ds): random
    sphere points plus the axes xhat, x_perp, yhat, y_perp, dr, ds and five
    diagonals.  Entries 0 and 1 are xhat and x_perp, 2 and 3 yhat and y_perp
    (in dim 1 the perpendicular repeats the axis)."""
    dim = 2 * d + 2
    rnd = rng.standard_normal((n, n_random, dim))
    rnd /= np.linalg.norm(rnd, axis=2, keepdims=True)
    structured = np.zeros((n, 10, dim))
    structured[:, 0, :d] = xhat
    structured[:, 1, :d] = _any_perp(xhat)
    structured[:, 2, d:2 * d] = yhat
    structured[:, 3, d:2 * d] = _any_perp(yhat)
    structured[:, 4, 2 * d] = 1.0
    structured[:, 5, 2 * d + 1] = 1.0
    h = 1.0 / np.sqrt(2.0)
    structured[:, 6, :d] = xhat * h
    structured[:, 6, d:2 * d] = yhat * h
    structured[:, 7, :d] = xhat * h
    structured[:, 7, 2 * d] = h
    structured[:, 8, d:2 * d] = yhat * h
    structured[:, 8, 2 * d + 1] = h
    structured[:, 9, 2 * d] = h
    structured[:, 9, 2 * d + 1] = -h
    return np.concatenate([structured, rnd], axis=1)


def split_directions(dirs, d):
    """(dx, dy, dr, ds) views of a direction bank."""
    return dirs[..., :d], dirs[..., d:2 * d], dirs[..., 2 * d], dirs[..., 2 * d + 1]


def orthant_directions(grid_size, n_random, rng):
    """Unit directions of the nonnegative orthant of R^4: a grid_size^4 grid
    (origin dropped) plus n_random folded Gaussian draws."""
    axes = np.linspace(0.0, 1.0, grid_size)
    grid = np.stack([g.ravel() for g in np.meshgrid(axes, axes, axes, axes,
                                                    indexing="ij")], axis=1)
    grid = grid[np.linalg.norm(grid, axis=1) > 0.0]
    dirs = np.vstack([grid, np.abs(rng.standard_normal((n_random, 4)))])
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def valid_convolution(values, kernel):
    """Linear convolution of values with kernel, only where the kernel fits."""
    return fftconvolve(values, kernel, mode="valid")


# kept: the only check that the crop drops zero-weight taps alone, at five
# (ell, h), and that the uncropped box mollifies to the same grid on four boxes
def uncropped_bump_kernel(ell: float, spacing: float):
    """Discretized normalized bump with support radius ell; weights sum to 1."""
    m = int(np.floor(ell / spacing))
    ax = np.arange(-m, m + 1) * spacing
    grids = np.meshgrid(*([ax] * 5), indexing="ij")
    r2 = sum(g * g for g in grids) / (ell * ell)
    w = np.zeros_like(r2)
    inside = r2 < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return w / w.sum(), m


# kept: no golden runs the mollified one-leg check; it pins the margins' bits
# at Q in {1.5, 2, 16, 256}, 200 and 300 pairs, six seeds
def interpolator_composite_one_leg_margins(moll, cfg, n_pairs=200, seed=0):
    """`composite_one_leg_margins` as it read the grid through scipy's 5-D
    linear interpolators of the values and of their np.gradient, with the
    `MollifiedH4.__call__` and `gradient` it called."""
    rng = np.random.default_rng(seed)
    axx, axy, axr, axs, axk = moll.axes
    idx = rng.integers(0, [len(axx), len(axy), len(axr), len(axs)],
                       size=(2 * n_pairs, 4))
    x, y = axx[idx[:, 0]], axy[idx[:, 1]]
    r, s = axr[idx[:, 2]], axs[idx[:, 3]]
    keep = domain_masks(x, y, r, s, cfg)[0]      # (r, s) pairs in D_Q
    x, y, r, s = x[keep], y[keep], r[keep], s[keep]
    t = r * s
    (k, kp), _ = kn_of_t(t, cfg.Q, order=1)
    if (k < axk[0]).any() or (k > axk[-1]).any():
        raise ConfigError("K(rs) leaves the grid's K axis; widen it")

    full = evaluate_batch(x, y, r, s, cfg, order=1)
    raw4 = b4_batch(x, y, r, s, cfg)
    pts5 = np.stack([x, y, r, s, k], axis=1)
    itp = RegularGridInterpolator(moll.axes, moll.values, method="linear",
                                  bounds_error=True)
    m_val = itp(np.asarray(pts5, dtype=float))
    grads = np.gradient(moll.values, *[ax for ax in moll.axes], edge_order=2)
    grad_itps = [RegularGridInterpolator(moll.axes, g, method="linear",
                                         bounds_error=True)
                 for g in grads]
    m_grad = np.stack([g(np.asarray(pts5, dtype=float)) for g in grad_itps], axis=-1)
    c7 = DEFAULT_COEFFICIENTS[3]
    value = full.value + c7 * (m_val - raw4.value)
    grad = np.empty((len(x), 4))
    grad[:, 0] = full.g[0] - c7 * raw4.g[0] + c7 * m_grad[:, 0]
    grad[:, 1] = full.g[1] - c7 * raw4.g[1] + c7 * m_grad[:, 1]
    grad[:, 2] = full.g[2] - c7 * raw4.g[2] + c7 * (m_grad[:, 2] + m_grad[:, 4] * kp * s)
    grad[:, 3] = full.g[3] - c7 * raw4.g[3] + c7 * (m_grad[:, 3] + m_grad[:, 4] * kp * r)

    half = len(x) // 2
    i0, i1 = np.arange(half), np.arange(half, 2 * half)
    dv = np.stack([x[i1] - x[i0], y[i1] - y[i0], r[i1] - r[i0], s[i1] - s[i0]], axis=1)
    unit = np.ones((half, 1))           # the unit directions of scalar x, y > 0
    margins, _, _ = one_leg_margin(grad[i0].T, value[i0], unit, unit, value[i1],
                                   dv[:, :1], dv[:, 1:2], dv[:, 2], dv[:, 3], cfg.Q,
                                   constant=1.0)
    return margins[(dv != 0.0).any(axis=1)]


def random_dual_ratio(y_leaves, w_leaves, rng, n_test=32):
    """Largest pairing ratio |E<Y, Z>| / ||Z||_(2, 1/w) over n_test Gaussian
    test leaves Z."""
    best = 0.0
    for _ in range(n_test):
        z = rng.standard_normal(y_leaves.shape)
        nz = np.sqrt(np.mean(np.sum(z ** 2, axis=1) / w_leaves))
        best = max(best, abs(float(np.mean(np.sum(y_leaves * z, axis=1)))) / nz)
    return best


def signed_transform(f, sig0, sigs):
    """T_sigma f on the leaves: sig0 times the mean of f plus, at each level
    k = 1..n, the level-k increment of f times its parent's sign sigs[k-1],
    with the node means taken by reshaping the leaf vector."""
    f = np.asarray(f, dtype=float)
    n = len(f).bit_length() - 1
    prev = np.full_like(f, f.mean())
    y = sig0 * prev
    for k in range(1, n + 1):
        cur = np.repeat(f.reshape(2 ** k, -1).mean(axis=1), 2 ** (n - k))
        y = y + np.repeat(sigs[k - 1], 2 ** (n - k + 1)) * (cur - prev)
        prev = cur
    return y


def random_start_ratio(f, w, ascend, rng, restarts=3):
    """Largest ||T_sigma f||_(2,w)^2 / ||f||_(2,w)^2 after the sign ascent
    ascend(f, w, sig0, sigs) -> (sig0, sigs) from `restarts` random starts:
    a random sig0, then per level the signs of Gaussian draws."""
    n = len(f).bit_length() - 1
    best = 0.0
    for _ in range(restarts):
        sig0 = rng.choice([-1.0, 1.0])
        sigs = [np.where(rng.standard_normal(2 ** k) >= 0, 1.0, -1.0) for k in range(n)]
        y = signed_transform(f, *ascend(f, w, sig0, sigs))
        best = max(best, float(np.mean(w * y * y) / np.mean(w * f * f)))
    return best


def exhaustive_multiplier_norm(w):
    """sup over sigma of ||T_sigma||_(2,w) on a depth-n tree (n <= 4), by
    enumeration.  sigma0 = +1 loses nothing, since flipping every sign
    negates T_sigma; the other 2^n - 1 signs take every value.  T_sigma is
    the root mean plus one signed increment block per node, built from the
    matrices of the conditional expectations, and its norm is the top
    singular value of W^1/2 T_sigma W^-1/2, in batches of sign patterns."""
    w = np.asarray(w, dtype=float)
    size = len(w)
    n = size.bit_length() - 1
    if n > 4:
        raise ValueError("exhaustive multiplier oracle capped at depth 4")
    means = [np.kron(np.eye(2 ** k), np.full((2 ** (n - k),) * 2, 2.0 ** (k - n)))
             for k in range(n + 1)]
    blocks = []
    for k in range(1, n + 1):
        span = 2 ** (n - k + 1)
        for i in range(2 ** (k - 1)):
            block = np.zeros((size, size))
            block[i * span:(i + 1) * span] = (means[k] - means[k - 1])[i * span:(i + 1) * span]
            blocks.append(block)
    blocks = np.array(blocks)
    scale = np.sqrt(w)
    patterns = np.arange(2 ** len(blocks))[:, None] >> np.arange(len(blocks)) & 1
    best = 0.0
    for chunk in np.array_split(1.0 - 2.0 * patterns, max(1, len(patterns) // 4096)):
        ops = means[0] + np.einsum("pa,aij->pij", chunk, blocks)
        norms = np.linalg.norm(scale[:, None] * ops / scale, ord=2, axis=(1, 2))
        best = max(best, float(norms.max()))
    return best


def repeat_sqfun_operator(w_leaves):
    """Matvec of the weighted square-function form S(f) = <f, N f>, at leaf
    size per level; its top generalized eigenvector attains ||S||_w."""
    n = int(np.log2(len(w_leaves)))
    wavg = dyadic_averages(w_leaves)

    def n_apply(f):
        lev = dyadic_averages(f)
        grad = np.full(len(f), lev[0][0] * wavg[0][0] / 2.0 ** n)
        for k in range(1, n + 1):
            df = lev[k] - np.repeat(lev[k - 1], 2)
            t = 2.0 ** (-k) * wavg[k] * df
            grad += np.repeat(t, 2 ** (n - k)) * 2.0 ** (-(n - k))
            tp = t.reshape(-1, 2).sum(axis=1)
            grad -= np.repeat(tp, 2 ** (n - k + 1)) * 2.0 ** (-(n - k + 1))
        return grad

    return n_apply


# kept: the sharpness golden runs power weights from the alternating start at
# depth 10; these pin the kernels from random starts, on log-normal weights,
# at depths 1 to 12
def repeat_apply_tsigma(f, sig0, sigs):
    """Leaf values of T_sigma f; sigs[k] has 2^k entries acting on level k+1."""
    lev = dyadic_averages(f)
    n = len(lev) - 1
    y = np.full(len(f), sig0 * lev[0][0])
    for k in range(1, n + 1):
        df = lev[k] - np.repeat(lev[k - 1], 2)
        y += np.repeat(np.repeat(sigs[k - 1], 2) * df, 2 ** (n - k))
    return y


def repeat_ascend_sigma(f, w, sig0, sigs, sweeps=8):
    """Coordinate ascent over the +-1 multipliers; each node takes the sign of
    its increment's weighted correlation with the rest of the transform."""
    n = int(np.log2(len(f)))
    lev = dyadic_averages(f)
    dfs = [lev[k] - np.repeat(lev[k - 1], 2) for k in range(1, n + 1)]
    y = repeat_apply_tsigma(f, sig0, sigs)
    for _ in range(sweeps):
        changed = False
        rest = y - sig0 * lev[0][0]
        new0 = 1.0 if float(np.mean(w * rest)) * lev[0][0] >= 0.0 else -1.0
        if new0 != sig0:
            y = y + (new0 - sig0) * lev[0][0]
            sig0 = new0
            changed = True
        for k in range(n):
            dfk = dfs[k]
            span = 2 ** (n - k - 1)
            dfk_leaf = np.repeat(dfk, span)
            cur_leaf = np.repeat(np.repeat(sigs[k], 2) * dfk, span)
            corr = (w * (y - cur_leaf) * dfk_leaf).reshape(2 ** k, -1).sum(axis=1)
            new = np.where(corr >= 0.0, 1.0, -1.0)
            if not np.array_equal(new, sigs[k]):
                y = y - cur_leaf + np.repeat(np.repeat(new, 2) * dfk, span)
                sigs[k] = new
                changed = True
        if not changed:
            break
    return sig0, sigs


def qr_rotation(g):
    """q·sign(diag r) from `np.linalg.qr` of a (d, d) matrix or a stack."""
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def rotation_transform_per_node(X, rng):
    """The node-by-node rotation draw that `rotation_transform` batches: the
    root's matrix, then each node's in level and node order, each factored
    by `qr_rotation` and applied to both children's increments by einsum."""
    d = X.dim
    levels = [X.levels[0] @ qr_rotation(rng.standard_normal((d, d))).T]
    for k in range(1, X.depth + 1):
        dX = X.levels[k] - np.repeat(X.levels[k - 1], 2, axis=0)
        rots = np.stack([qr_rotation(rng.standard_normal((d, d)))
                         for _ in range(2 ** (k - 1))])
        dY = np.einsum("pij,pcj->pci", rots,
                       dX.reshape(2 ** (k - 1), 2, d)).reshape(2 ** k, d)
        levels.append(np.repeat(levels[-1], 2, axis=0) + dY)
    return DyadicMartingale(levels)


# kept: the simulate golden runs signs +-1 with sigma0 = 1 at depth 10, dim 2,
# and no command runs `_dissipation_sum`; these pin depths 0, 1 and 12 at
# dims 1 and 3, fractional signs with sigma0 = -0.75, and both sums
def repeat_increments(X):
    """df per level: list over k = 1..n of (2^k, d) arrays, child - parent."""
    return [X.levels[k] - np.repeat(X.levels[k - 1], 2, axis=0)
            for k in range(1, X.depth + 1)]


def repeat_transform(X, sigma, sigma0=1.0):
    """Predictable multiplier: dY at level k+1 is sigma[k] (per parent node)
    times dX, and Y_0 = sigma0 X_0.  Requires |sigma| <= 1 throughout;
    the result is differentially subordinate to X by construction.
    """
    sigma = [np.asarray(s, dtype=float) for s in sigma]
    if len(sigma) != X.depth:
        raise InvalidInputError(f"need {X.depth} sigma levels, got {len(sigma)}")
    if abs(sigma0) > 1.0 or any((np.abs(s) > 1.0).any() for s in sigma):
        raise SubordinationError("|sigma| > 1 would break subordination")
    levels = [sigma0 * X.levels[0]]
    for k in range(1, X.depth + 1):
        if sigma[k - 1].shape != (2 ** (k - 1),):
            raise InvalidInputError(f"sigma level {k - 1} must have 2^{k - 1} entries")
        dX = X.levels[k] - np.repeat(X.levels[k - 1], 2, axis=0)
        sig = np.repeat(sigma[k - 1], 2)[:, None]
        levels.append(np.repeat(levels[-1], 2, axis=0) + sig * dX)
    return DyadicMartingale(levels)


def mass_bilinear_form(Y, Z):
    """E sum_k |<dY_k, dZ_k>| including the time-0 term |<Y_0, Z_0>|."""
    total = abs(float(Y.initial @ Z.initial))
    for k, (dy, dz) in enumerate(zip(repeat_increments(Y), repeat_increments(Z)), start=1):
        total += float(np.sum(np.abs(np.sum(dy * dz, axis=1))) * 2.0 ** (-k))
    return total


def mass_dissipation_sum(X, Z):
    """E sum_k |dX_k| |dZ_k| without the time-0 term."""
    total = 0.0
    for k, (dx, dz) in enumerate(zip(repeat_increments(X), repeat_increments(Z)), start=1):
        total += float(np.sum(np.linalg.norm(dx, axis=1)
                              * np.linalg.norm(dz, axis=1))) * 2.0 ** (-k)
    return total


# kept: the per-level telescope oracle compares bits on its real anchored rows
# at depths 1, 6, 12 and dims 1, 2, 3, 7, 8; the goldens run one seed each
# at dims 2, 3 and 7
def with_anchor(X, a):
    """Prepend a constant coordinate a, so |X^a_k|^2 = |X_k|^2 + a^2 >= a^2."""
    return DyadicMartingale(
        [np.concatenate([np.full((lev.shape[0], 1), float(a)), lev], axis=1)
         for lev in X.levels])


# kept: the goldens run dim 2 at Q in {2, 10, 16, 256}; it pins u's bits at
# dims 1 and 3 and at Q in {1, 1.5, 1e4}, seeds 1 to 3
def allocating_best_shift(h, tan, Q):
    """u = tau/Q for a near-best bound, by bisection on the level lam.

    lam is reachable iff, for some u > 0, h - lam I - diag(u, 1/(Q^2 u), 0, 0)
    >= 0, tx - u >= lam and ty - 1/(Q^2 u) >= lam: with h_rs - lam I > 0 and M
    its Schur complement, iff some u in [1/(Q^2 V), U], U = min(m11, tx - lam),
    V = min(m22, ty - lam), has (m11 - u)(m22 - 1/(Q^2 u)) >= m12^2.  The left
    side is concave in u and peaks at sqrt(m11/m22)/Q, so its clipped peak
    decides.  Gershgorin less 1/Q is reachable (at u = 1/Q); no lam > min diag h is.
    """
    diag = np.diagonal(h, axis1=1, axis2=2)
    lo = np.minimum(np.min(2.0 * diag - row_sum(np.abs(h)), axis=1),
                    np.minimum(*tan)) - 1.0 / Q
    hi = np.min(diag, axis=1)
    u = np.full(len(h), 1.0 / Q)
    p0, p1, q0, q1 = h[:, 0, 2], h[:, 0, 3], h[:, 1, 2], h[:, 1, 3]
    c12 = h[:, 2, 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(64):     # the bracket shrinks to the float spacing
            lam = 0.5 * (lo + hi)
            c11, c22 = h[:, 2, 2] - lam, h[:, 3, 3] - lam
            det = c11 * c22 - c12 * c12

            def inv_form(x0, x1, y0, y1):
                return (c22 * x0 * y0 - c12 * (x0 * y1 + x1 * y0) + c11 * x1 * y1) / det

            m11 = h[:, 0, 0] - lam - inv_form(p0, p1, p0, p1)
            m22 = h[:, 1, 1] - lam - inv_form(q0, q1, q0, q1)
            m12 = h[:, 0, 1] - inv_form(p0, p1, q0, q1)
            top, side = np.minimum(m11, tan[0] - lam), np.minimum(m22, tan[1] - lam)
            floor = 1.0 / (Q * Q * side)
            cand = np.clip(np.sqrt(m11 / m22) / Q, floor, top)
            ok = ((c11 > 0.0) & (det > 0.0) & (top > 0.0) & (side > 0.0)
                  & (floor <= top)
                  & ((m11 - cand) * (m22 - 1.0 / (Q * Q * cand)) >= m12 * m12))
            lo = np.where(ok, lam, lo)
            hi = np.where(ok, hi, lam)
            u = np.where(ok, cand, u)
    return u
