"""Jets: exact (value, gradient) and (value, gradient, Hessian) arithmetic.

A ``Jet2`` carries the second-order Taylor data of a scalar quantity at one
or many points, and a ``Jet1`` the first-order data alone.  The arithmetic
propagates that data exactly, so every derivative in the package comes out
at machine precision instead of the 1e-5 sort of accuracy a
finite-difference scheme would give.  Finite differences are kept only as
an independent cross-check, in the tests.

Jets are batch friendly.  ``value`` has an arbitrary leading shape S
(typically ``()`` for a single point or ``(n,)`` for a sample sweep),
``grad`` has shape ``S + (dim,)`` and ``hess`` has shape
``S + (dim, dim)``.  The Hessian stays exactly symmetric: every update is
assembled as ``outer + outer.swap`` so symmetry holds to representation
equality, not merely to rounding.

``Jet1`` has Jet2's ring and chain-rule API without the Hessian, and every
operation computes its value and gradient by the same floating-point
operations, in the same order, as Jet2's.  So a Jet1 computation gives the
value and gradient of the same Jet2 computation bit for bit, and costs
neither the Hessian nor the outer products that feed it.

The ring operations also take a plain float, a constant, on either side:
``c + J`` changes only the value (and shares J's gradient and Hessian
arrays, which no operation writes to), ``c * J`` scales all three parts by
c, ``J / c`` scales them by ``1.0 / c`` and ``c / J`` scales
``J.reciprocal()`` by c.  So a constant is never a jet of zero derivatives,
and a product with one computes none of the zero terms of a full jet
product.  Values are bit for bit those of that all-jet arithmetic;
derivatives are too, except for the sign of a zero and, where a value is
already non-finite, the ``0 * NaN`` terms that no longer appear.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Jet1", "Jet2", "coordinate_jets"]


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :]


def _sym_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m = _outer(a, b)
    return m + np.swapaxes(m, -1, -2)


class Jet2:
    """Value, gradient and symmetric Hessian of a scalar at a point batch."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: np.ndarray, grad: np.ndarray, hess: np.ndarray):
        self.value = value
        self.grad = grad
        self.hess = hess

    @property
    def dim(self) -> int:
        return self.grad.shape[-1]

    def constant_like(self, c: float) -> "Jet2":
        return Jet2(
            np.full_like(self.value, c),
            np.zeros_like(self.grad),
            np.zeros_like(self.hess),
        )

    # -- ring operations ---------------------------------------------------
    # ``other`` is a Jet2 or a float.  The reflected forms go through
    # ``__add__``, ``__mul__`` and ``__neg__`` so that patching or counting
    # those sees every operation.

    def __add__(self, other: "Jet2 | float") -> "Jet2":
        if not isinstance(other, Jet2):
            return Jet2(self.value + other, self.grad, self.hess)
        return Jet2(self.value + other.value, self.grad + other.grad, self.hess + other.hess)

    def __radd__(self, other: float) -> "Jet2":
        return self + other

    def __sub__(self, other: "Jet2 | float") -> "Jet2":
        if not isinstance(other, Jet2):
            return Jet2(self.value - other, self.grad, self.hess)
        return Jet2(self.value - other.value, self.grad - other.grad, self.hess - other.hess)

    def __rsub__(self, other: float) -> "Jet2":
        return -self + other  # c + (-v) is c - v to the bit

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.grad, -self.hess)

    def __mul__(self, other: "Jet2 | float") -> "Jet2":
        if not isinstance(other, Jet2):
            return Jet2(self.value * other, self.grad * other, self.hess * other)
        v = self.value * other.value
        g = self.grad * other.value[..., None] + other.grad * self.value[..., None]
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
        inv3 = inv2 * inv
        g = -self.grad * inv2[..., None]
        h = -self.hess * inv2[..., None, None] + _sym_outer(self.grad, self.grad) * inv3[..., None, None]
        return Jet2(inv, g, h)

    def __truediv__(self, other: "Jet2 | float") -> "Jet2":
        if not isinstance(other, Jet2):
            return self * (1.0 / other)
        return self * other.reciprocal()

    def __rtruediv__(self, other: float) -> "Jet2":
        return self.reciprocal() * other

    # -- smooth univariate maps, via the chain rule ------------------------

    def _chain(self, f0: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> "Jet2":
        g = self.grad * f1[..., None]
        h = self.hess * f1[..., None, None] + _outer(self.grad, self.grad) * f2[..., None, None]
        return Jet2(f0, g, h)

    def power(self, n: float) -> "Jet2":
        if n == 0.0:
            return self.constant_like(1.0)
        if n == 1.0:
            return self
        if float(n).is_integer():
            v = self.value ** int(n)
            d1 = n * self.value ** (int(n) - 1)
            d2 = n * (n - 1.0) * self.value ** (int(n) - 2)
        else:
            v = self.value ** n
            d1 = n * self.value ** (n - 1.0)
            d2 = n * (n - 1.0) * self.value ** (n - 2.0)
        return self._chain(v, d1, d2)

    def exp(self) -> "Jet2":
        e = np.exp(self.value)
        return self._chain(e, e, e)

    def sin(self) -> "Jet2":
        s = np.sin(self.value)
        c = np.cos(self.value)
        return self._chain(s, c, -s)

    def cos(self) -> "Jet2":
        s = np.sin(self.value)
        c = np.cos(self.value)
        return self._chain(c, -s, -c)

    def sqrt(self) -> "Jet2":
        r = np.sqrt(self.value)
        return self._chain(r, 0.5 / r, -0.25 / (r * self.value))


class Jet1:
    """Value and gradient of a scalar at a point batch: Jet2 without the Hessian."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray, grad: np.ndarray):
        self.value = value
        self.grad = grad

    def constant_like(self, c: float) -> "Jet1":
        return Jet1(np.full_like(self.value, c), np.zeros_like(self.grad))

    # -- ring operations, each Jet2's value and gradient part --------------

    def __add__(self, other: "Jet1 | float") -> "Jet1":
        if not isinstance(other, Jet1):
            return Jet1(self.value + other, self.grad)
        return Jet1(self.value + other.value, self.grad + other.grad)

    def __radd__(self, other: float) -> "Jet1":
        return self + other

    def __sub__(self, other: "Jet1 | float") -> "Jet1":
        if not isinstance(other, Jet1):
            return Jet1(self.value - other, self.grad)
        return Jet1(self.value - other.value, self.grad - other.grad)

    def __rsub__(self, other: float) -> "Jet1":
        return -self + other

    def __neg__(self) -> "Jet1":
        return Jet1(-self.value, -self.grad)

    def __mul__(self, other: "Jet1 | float") -> "Jet1":
        if not isinstance(other, Jet1):
            return Jet1(self.value * other, self.grad * other)
        v = self.value * other.value
        g = self.grad * other.value[..., None] + other.grad * self.value[..., None]
        return Jet1(v, g)

    def __rmul__(self, other: float) -> "Jet1":
        return self * other

    def reciprocal(self) -> "Jet1":
        inv = 1.0 / self.value
        return Jet1(inv, -self.grad * (inv * inv)[..., None])

    def __truediv__(self, other: "Jet1 | float") -> "Jet1":
        if not isinstance(other, Jet1):
            return self * (1.0 / other)
        return self * other.reciprocal()

    def __rtruediv__(self, other: float) -> "Jet1":
        return self.reciprocal() * other

    # -- smooth univariate maps, via the chain rule ------------------------

    def _chain(self, f0: np.ndarray, f1: np.ndarray) -> "Jet1":
        return Jet1(f0, self.grad * f1[..., None])

    def power(self, n: float) -> "Jet1":
        if n == 0.0:
            return self.constant_like(1.0)
        if n == 1.0:
            return self
        if float(n).is_integer():
            return self._chain(self.value ** int(n), n * self.value ** (int(n) - 1))
        return self._chain(self.value ** n, n * self.value ** (n - 1.0))

    def exp(self) -> "Jet1":
        e = np.exp(self.value)
        return self._chain(e, e)

    def sin(self) -> "Jet1":
        return self._chain(np.sin(self.value), np.cos(self.value))

    def cos(self) -> "Jet1":
        return self._chain(np.cos(self.value), -np.sin(self.value))

    def sqrt(self) -> "Jet1":
        r = np.sqrt(self.value)
        return self._chain(r, 0.5 / r)


def coordinate_jets(points: np.ndarray, order: int = 2) -> tuple[Jet1 | Jet2, ...]:
    """Seed jets of the given order (1 or 2) for the coordinate functions at
    a batch of points.

    ``points`` has shape ``(dim,)`` for a single point or ``(n, dim)`` for a
    batch.  Coordinate ``k`` gets value ``points[..., k]``, gradient ``e_k``
    and, at order 2, zero Hessian.
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
    jet = Jet2 if order == 2 else Jet1
    return tuple(jet(*(p[k] for p in parts)) for k in range(dim))
