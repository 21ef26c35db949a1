"""Jets: exact value, gradient and, at order 2, Hessian arithmetic.

A ``Jet2`` carries the Taylor data of a scalar quantity at one or many
points: its value and gradient and, at order 2, its Hessian.  At order 1
``hess`` is None, and every operation computes the value and gradient
exactly as at order 2 and skips all Hessian work, the outer products
that feed it included.  So an order-1 computation gives the value and
gradient of the same order-2 computation bit for bit.  The arithmetic
propagates that data exactly, so every derivative in the package comes
out at machine precision instead of the 1e-5 sort of accuracy a
finite-difference scheme would give.  Finite differences are kept only as
an independent cross-check, in the tests.

Jets are batch friendly.  ``value`` has an arbitrary leading shape S
(typically ``()`` for a single point or ``(n,)`` for a sample sweep),
``grad`` has shape ``S + (dim,)`` and ``hess`` has shape
``S + (dim, dim)``.  The Hessian stays exactly symmetric: every update is
assembled as ``outer + outer.swap`` so symmetry holds to representation
equality, not merely to rounding.

The ring operations also take a plain float, a constant, on either side:
``c + J`` changes only the value (and shares J's gradient and Hessian
arrays, which no operation writes to), ``c * J`` scales every part by
c, ``J / c`` scales them by ``1.0 / c`` and ``c / J`` scales
``J.reciprocal()`` by c.  So a constant is never a jet of zero derivatives,
and a product with one computes none of the zero terms of a full jet
product.  Values are bit for bit those of that all-jet arithmetic;
derivatives are too, except for the sign of a zero and, where a value is
already non-finite, the ``0 * NaN`` terms that no longer appear.  A zero
constant denominator gives infinite or NaN parts, as a zero in a jet
denominator does.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Jet2", "coordinate_jets"]


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :]


def _sym_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m = _outer(a, b)
    return m + np.swapaxes(m, -1, -2)


class Jet2:
    """Value, gradient and, at order 2, symmetric Hessian of a scalar at a
    point batch; ``hess`` is None at order 1."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: np.ndarray, grad: np.ndarray, hess: np.ndarray | None):
        self.value = value
        self.grad = grad
        self.hess = hess

    def constant_like(self, c: float) -> "Jet2":
        hess = None if self.hess is None else np.zeros_like(self.hess)
        return Jet2(np.full_like(self.value, c), np.zeros_like(self.grad), hess)

    # -- ring operations ---------------------------------------------------
    # ``other`` is a Jet2 of the same order or a float.  The reflected forms
    # go through ``__add__``, ``__mul__`` and ``__neg__`` so that patching
    # or counting those sees every operation.

    def __add__(self, other: "Jet2 | float") -> "Jet2":
        if not isinstance(other, Jet2):
            return Jet2(self.value + other, self.grad, self.hess)
        hess = None if self.hess is None else self.hess + other.hess
        return Jet2(self.value + other.value, self.grad + other.grad, hess)

    def __radd__(self, other: float) -> "Jet2":
        return self + other

    def __sub__(self, other: "Jet2 | float") -> "Jet2":
        if not isinstance(other, Jet2):
            return Jet2(self.value - other, self.grad, self.hess)
        hess = None if self.hess is None else self.hess - other.hess
        return Jet2(self.value - other.value, self.grad - other.grad, hess)

    def __rsub__(self, other: float) -> "Jet2":
        return -self + other  # c + (-v) is c - v to the bit

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.grad, None if self.hess is None else -self.hess)

    def __mul__(self, other: "Jet2 | float") -> "Jet2":
        if not isinstance(other, Jet2):
            hess = None if self.hess is None else self.hess * other
            return Jet2(self.value * other, self.grad * other, hess)
        v = self.value * other.value
        g = self.grad * other.value[..., None] + other.grad * self.value[..., None]
        if self.hess is None:
            return Jet2(v, g, None)
        h = (
            self.hess * other.value[..., None, None]
            + other.hess * self.value[..., None, None]
            + _sym_outer(self.grad, other.grad)
        )
        return Jet2(v, g, h)

    def __rmul__(self, other: float) -> "Jet2":
        return self * other

    def reciprocal(self) -> "Jet2":
        inv = 1.0 / self.value
        inv2 = inv * inv
        g = -self.grad * inv2[..., None]
        if self.hess is None:
            return Jet2(inv, g, None)
        inv3 = inv2 * inv
        h = -self.hess * inv2[..., None, None] + _sym_outer(self.grad, self.grad) * inv3[..., None, None]
        return Jet2(inv, g, h)

    def __truediv__(self, other: "Jet2 | float") -> "Jet2":
        if not isinstance(other, Jet2):
            return self * (np.float64(1.0) / other)  # 1 / 0 is inf, as in an array
        return self * other.reciprocal()

    def __rtruediv__(self, other: float) -> "Jet2":
        return self.reciprocal() * other

    # -- smooth univariate maps, via the chain rule ------------------------

    def _chain(self, f0: np.ndarray, f1: np.ndarray, f2) -> "Jet2":
        """The jet of f(self), from f's value ``f0`` and first derivative
        ``f1`` at the value; ``f2()`` gives the second derivative and is
        called at order 2 only."""
        g = self.grad * f1[..., None]
        if self.hess is None:
            return Jet2(f0, g, None)
        h = self.hess * f1[..., None, None] + _outer(self.grad, self.grad) * f2()[..., None, None]
        return Jet2(f0, g, h)

    def power(self, n: float) -> "Jet2":
        if n == 0.0:
            return self.constant_like(1.0)
        if n == 1.0:
            return self
        v = self.value
        if float(n).is_integer():
            k = int(n)
            return self._chain(v ** k, n * v ** (k - 1), lambda: n * (n - 1.0) * v ** (k - 2))
        return self._chain(v ** n, n * v ** (n - 1.0), lambda: n * (n - 1.0) * v ** (n - 2.0))

    def exp(self) -> "Jet2":
        e = np.exp(self.value)
        return self._chain(e, e, lambda: e)

    def sin(self) -> "Jet2":
        s = np.sin(self.value)
        c = np.cos(self.value)
        return self._chain(s, c, lambda: -s)

    def cos(self) -> "Jet2":
        s = np.sin(self.value)
        c = np.cos(self.value)
        return self._chain(c, -s, lambda: -c)

    def sqrt(self) -> "Jet2":
        r = np.sqrt(self.value)
        return self._chain(r, 0.5 / r, lambda: -0.25 / (r * self.value))


def coordinate_jets(points: np.ndarray, order: int) -> tuple[Jet2, ...]:
    """Seed jets of the given order (1 or 2) for the coordinate functions at
    a batch of points.

    ``points`` has shape ``(dim,)`` for a single point or ``(n, dim)`` for a
    batch.  Coordinate ``k`` gets value ``points[..., k]``, gradient ``e_k``
    and, at order 2, zero Hessian (None at order 1).
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    n, dim = pts.shape
    # one array per part; seed k reads slice k of each
    grads = np.zeros((dim, n, dim))
    grads[np.arange(dim), :, np.arange(dim)] = 1.0
    parts = [pts.T, grads]
    if order == 2:
        parts.append(np.zeros((dim, n, dim, dim)))
    if single:
        parts = [p[:, 0] for p in parts]
    hess = parts[2] if order == 2 else [None] * dim
    return tuple(Jet2(parts[0][k], parts[1][k], hess[k]) for k in range(dim))
