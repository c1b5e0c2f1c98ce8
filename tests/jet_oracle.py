"""Second-order forward-mode derivatives in (a, b, r, s): the test oracle.

Every Bellman component depends on the vector arguments x, y only through
a = |x| and b = |y|, so values, gradients and Hessians reduce to partial
derivatives of scalar profiles phi(a, b, r, s).  A Jet carries the value, the
4 first partials and the symmetric 4x4 matrix of second partials of such a
profile, propagated exactly through arithmetic; all slots broadcast over a
batch shape.  The library assembles its partials in closed form from the
coefficient functions of each block; `bellman_jets` rebuilds the same blocks
from their textbook formulas by plain Jet arithmetic, as an independent check.
"""

from __future__ import annotations

import numpy as np

from bellsub.coefficients import DEFAULT_COEFFICIENTS

NVARS = 4  # order of variables: a, b, r, s


class Jet:
    __slots__ = ("val", "g", "h")

    def __init__(self, val, g, h):
        self.val = val
        self.g = g      # shape (4,) + batch
        self.h = h      # shape (4, 4) + batch

    # -- construction -------------------------------------------------

    @staticmethod
    def variable(value, index, batch_shape):
        g = np.zeros((NVARS,) + batch_shape)
        g[index] = 1.0
        h = np.zeros((NVARS, NVARS) + batch_shape)
        return Jet(np.broadcast_to(np.asarray(value, dtype=float), batch_shape).copy(), g, h)

    @staticmethod
    def variables(a, b, r, s):
        a, b, r, s = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, r, s)))
        shape = a.shape
        return (Jet.variable(a, 0, shape), Jet.variable(b, 1, shape),
                Jet.variable(r, 2, shape), Jet.variable(s, 3, shape))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.g + other.g, self.h + other.h)
        return Jet(self.val + other, self.g.copy(), self.h.copy())

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.g, -self.h)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val - other.val, self.g - other.g, self.h - other.h)
        return Jet(self.val - other, self.g.copy(), self.h.copy())

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            cross = self.g[:, None] * other.g[None, :]
            return Jet(self.val * other.val,
                       self.g * other.val + other.g * self.val,
                       self.h * other.val + other.h * self.val + cross + _tr(cross))
        return Jet(self.val * other, self.g * other, self.h * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return Jet(self.val / other, self.g / other, self.h / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self):
        inv = 1.0 / self.val
        return self._chain(inv, -inv * inv, 2.0 * inv * inv * inv)

    def sqrt(self):
        root = np.sqrt(self.val)
        return self._chain(root, 0.5 / root, -0.25 / (root * self.val))

    def _chain(self, f, fp, fpp):
        """Compose with a scalar map given its value and first two derivatives."""
        outer = self.g[:, None] * self.g[None, :]
        return Jet(f, fp * self.g, fp * self.h + fpp * outer)

    # -- selection ------------------------------------------------------

    @staticmethod
    def where(mask, jtrue, jfalse):
        return Jet(np.where(mask, jtrue.val, jfalse.val),
                   np.where(mask, jtrue.g, jfalse.g),
                   np.where(mask, jtrue.h, jfalse.h))


def _tr(m):
    """Transpose the two leading (variable) axes."""
    return np.swapaxes(m, 0, 1)


def bellman_jets(a, b, r, s, cfg):
    """Jets of B and of its B4 block, written out from the block formulas."""
    ja, jb, jr, js = Jet.variables(a, b, r, s)
    Q = cfg.Q
    t = jr * js
    st = t.sqrt()
    isq = 1.0 / np.sqrt(Q)
    k = st * isq * (1.0 - st * (isq / 8.0))
    n = st * isq * (1.0 - t * t * (1.0 / (128.0 * Q * Q)))

    phi1 = ja * ja / jr + jb * jb / js
    phi2 = ja * ja / (2.0 * jr - (js * (n + 1.0)).reciprocal()) + jb * jb / js
    phi3 = ja * ja / jr + jb * jb / (2.0 * js - (jr * (n + 1.0)).reciprocal())
    phi5 = ja * ja / (2.0 * jr - (js * (k + 1.0)).reciprocal()) + jb * jb / js
    phi6 = ja * ja / jr + jb * jb / (2.0 * js - (jr * (k + 1.0)).reciprocal())

    q1 = jb.val * jr.val - ja.val * k.val
    q2 = ja.val * js.val - jb.val * k.val
    h4_r1 = (ja * ja * js - 2.0 * (ja * jb * k) + jb * jb * jr) / (t - k * k)
    phi4 = Jet.where((q1 > 0.0) & (q2 > 0.0), h4_r1,
                     Jet.where(q2 <= 0.0, jb * jb / js, ja * ja / jr))
    c1, c2, c3, c7 = DEFAULT_COEFFICIENTS
    return c1 * phi1 + c2 * phi2 + c3 * phi3 + c7 * (phi4 + phi5 + phi6), phi4
