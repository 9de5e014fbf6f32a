"""Truncated power series ("jets") in the contraction parameter j and
the field scale eps.

A :class:`Jet` stores the coefficients of a polynomial in j, truncated at a
fixed maximum power. With j the formal variable every grade is read off
exactly, and the nilpotent picture (j**2 == 0) is the reading of grades 0
and 1; :func:`jparam` can instead make j a plain number, 1 for ordinary
arithmetic or a small real t for the numeric-limit picture. Coefficients are
read off at any grade instead of ever dividing by j.

A jet also carries a second truncated variable, the field scale eps, when
a density is expanded in it: field samples are multiplied by eps, and one
evaluation yields every eps coefficient exactly (truncated Taylor
arithmetic). Outside an expansion a jet is a polynomial in j alone.

Arithmetic is exact truncated-ring arithmetic over complex coefficients.
Values are immutable; every operation returns a fresh Jet.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

DEFAULT_ORDER = 4

#: coefficient-wise tolerance for jet equality checks (floating drift only)
EQ_TOL = 1e-12

Scalar = Union[int, float, complex]


class JetError(Exception):
    """Base class for jet arithmetic errors."""


class ZeroConstantTerm(JetError):
    """Division by a jet whose constant term vanishes (division by a
    nilpotent-dominated value is undefined)."""


class NonPositiveConstantTerm(JetError):
    """inv_sqrt of a jet whose constant term is not real and positive."""


class Jet:
    """Polynomial in j and eps with complex coefficients, truncated beyond
    j**order and eps**eps_order (0 outside an expansion).

    coeffs[n, p] is the coefficient of j**n eps**p. Ring axioms hold exactly
    at fixed truncation orders (up to floating point). A jet without eps
    terms is zero-padded to the other operand's eps truncation, which is
    exact; any other mismatch of truncation orders raises.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable, order: int = DEFAULT_ORDER,
                 eps_order: int = 0):
        shape = (order + 1, eps_order + 1)
        c = np.array(coeffs if isinstance(coeffs, np.ndarray) else list(coeffs),
                     dtype=complex)
        if c.shape != shape:
            given = c[:, None] if c.ndim == 1 else c
            c = np.zeros(shape, dtype=complex)
            rows, cols = min(len(given), shape[0]), min(given.shape[1], shape[1])
            c[:rows, :cols] = given[:rows, :cols]
        c.flags.writeable = False
        self.coeffs = c

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, value: Scalar, order: int = DEFAULT_ORDER) -> "Jet":
        return cls([value], order)

    @classmethod
    def variable(cls, order: int = DEFAULT_ORDER) -> "Jet":
        """The jet representing j itself."""
        return cls([0.0, 1.0], order)

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "Jet":
        return cls([], order)

    # -- structure ----------------------------------------------------

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def eps_order(self) -> int:
        return self.coeffs.shape[1] - 1

    def grade(self, n: int) -> complex:
        """Coefficient of j**n (at eps**0)."""
        if n > self.order:
            raise IndexError(f"grade {n} exceeds truncation order {self.order}")
        return complex(self.coeffs[n, 0])

    # -- ring operations ----------------------------------------------

    def _aligned(self, other: "Jet | Scalar") -> Tuple[np.ndarray, np.ndarray]:
        """Coefficients of self and other at one eps truncation: an operand
        without eps terms is zero-padded to the other's."""
        if not isinstance(other, Jet):
            other = Jet.const(other, self.order)
        a, b = self.coeffs, other.coeffs
        if len(a) != len(b):
            raise ValueError(
                f"incompatible truncation orders {len(a) - 1} != {len(b) - 1}"
            )
        width = max(a.shape[1], b.shape[1])
        if min(a.shape[1], b.shape[1]) not in (1, width):
            raise ValueError(f"incompatible eps truncation orders "
                             f"{a.shape[1] - 1} != {b.shape[1] - 1}")
        return _widen(a, width), _widen(b, width)

    def _new(self, coeffs: np.ndarray) -> "Jet":
        return Jet(coeffs, self.order, coeffs.shape[1] - 1)

    def __add__(self, other: "Jet | Scalar") -> "Jet":
        a, b = self._aligned(other)
        return self._new(a + b)

    __radd__ = __add__

    def __sub__(self, other: "Jet | Scalar") -> "Jet":
        a, b = self._aligned(other)
        return self._new(a - b)

    def __rsub__(self, other: Scalar) -> "Jet":
        return Jet.const(other, self.order) - self

    def __neg__(self) -> "Jet":
        return self._new(-self.coeffs)

    def __mul__(self, other: "Jet | Scalar") -> "Jet":
        if not isinstance(other, Jet):
            return self._new(self.coeffs * complex(other))
        return self._new(_product(*self._aligned(other)))

    __rmul__ = __mul__

    def __truediv__(self, other: "Jet | Scalar") -> "Jet":
        if not isinstance(other, Jet):
            return self._new(self.coeffs / complex(other))
        return self * other.inv()

    def __rtruediv__(self, other: Scalar) -> "Jet":
        return Jet.const(other, self.order) * self.inv()

    def conjugate(self) -> "Jet":
        """Coefficient-wise complex conjugation (j and eps stay real)."""
        return self._new(np.conj(self.coeffs))

    def _binomial(self, a0: Scalar, power: float) -> "Jet":
        """(self / a0) ** power from the binomial series in u = self/a0 - 1,
        which is exact in the truncated ring: u**(order + eps_order + 1) = 0."""
        u = self.coeffs / a0
        u[0, 0] = 0.0
        result = np.zeros_like(u)
        result[0, 0] = 1.0
        term, coeff = result, 1.0
        for n in range(1, self.order + self.eps_order + 1):
            coeff *= (power - (n - 1)) / n
            term = _product(term, u)
            result = result + coeff * term
        return self._new(result)

    def inv(self) -> "Jet":
        """Multiplicative inverse; requires a nonzero constant term."""
        a0 = complex(self.coeffs[0, 0])
        if a0 == 0.0:
            raise ZeroConstantTerm(
                "cannot invert a jet with zero constant term "
                "(division by a nilpotent-dominated value)"
            )
        return self._binomial(a0, -1.0) / a0

    def inv_sqrt(self) -> "Jet":
        """1/sqrt of the jet; requires a real, positive constant term."""
        a0 = complex(self.coeffs[0, 0])
        if abs(a0.imag) > EQ_TOL * max(1.0, abs(a0)) or a0.real <= 0.0:
            raise NonPositiveConstantTerm(
                f"inv_sqrt requires a real positive constant term, got {a0}"
            )
        return self._binomial(a0.real, -0.5) * (a0.real ** -0.5)

    # -- misc ----------------------------------------------------------

    def allclose(self, other: "Jet | Scalar", tol: float = EQ_TOL) -> bool:
        a, b = self._aligned(other)
        return bool(np.all(np.abs(a - b) <= tol))

    def max_abs_diff(self, other: "Jet | Scalar") -> float:
        a, b = self._aligned(other)
        return float(np.max(np.abs(a - b)))

    def to_json(self) -> list:
        """Serialize a jet in j alone as [[re, im], ...] by grade."""
        if self.eps_order:
            raise ValueError("only a jet without eps terms serializes")
        return [[c.real, c.imag] for c in self.coeffs[:, 0]]

    def __repr__(self) -> str:
        return (f"Jet({self.coeffs.tolist()!r}, order={self.order}, "
                f"eps_order={self.eps_order})")


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of two coefficient arrays of one shape, as one
    convolution: with rows laid out `width` apart, j**n eps**p sits at
    n * width + p, and since no product reaches eps**width no eps power
    carries into the next j row."""
    rows, cols = a.shape
    width = 2 * cols - 1
    flat = np.convolve(_widen(a, width).ravel(), _widen(b, width).ravel())
    return flat[: rows * width].reshape(rows, width)[:, :cols]


def _widen(coeffs: np.ndarray, width: int) -> np.ndarray:
    """Zero-pad a coefficient array to `width` eps columns."""
    if coeffs.shape[1] == width:
        return coeffs
    out = np.zeros((coeffs.shape[0], width), dtype=complex)
    out[:, : coeffs.shape[1]] = coeffs
    return out


def jparam(order: int = DEFAULT_ORDER, jval: float | None = None) -> Jet:
    """The contraction parameter as a jet: the formal variable j by default,
    or a plain number (an untruncated numeric-j run) when jval is given."""
    if jval is None:
        return Jet.variable(order)
    return Jet.const(jval, order)


class JetMatrix2:
    """2x2 matrix over jets: group elements, algebra elements, gauge fields."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[Jet]]):
        (a, b), (c, d) = entries
        orders = {a.order, b.order, c.order, d.order}
        if len(orders) != 1:
            raise ValueError("matrix entries must share a truncation order")
        self.entries = ((a, b), (c, d))

    @classmethod
    def from_array(cls, arr, order: int = DEFAULT_ORDER) -> "JetMatrix2":
        """Build from a 2x2 array of plain numbers."""
        return cls([[Jet.const(arr[r][c], order) for c in range(2)] for r in range(2)])

    @classmethod
    def identity(cls, order: int = DEFAULT_ORDER) -> "JetMatrix2":
        one, zero = Jet.const(1.0, order), Jet.zero(order)
        return cls([[one, zero], [zero, one]])

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "JetMatrix2":
        z = Jet.zero(order)
        return cls([[z, z], [z, z]])

    @property
    def order(self) -> int:
        return self.entries[0][0].order

    def __getitem__(self, idx):
        r, c = idx
        return self.entries[r][c]

    def __add__(self, other: "JetMatrix2") -> "JetMatrix2":
        return JetMatrix2(
            [[self[r, c] + other[r, c] for c in range(2)] for r in range(2)]
        )

    def __sub__(self, other: "JetMatrix2") -> "JetMatrix2":
        return JetMatrix2(
            [[self[r, c] - other[r, c] for c in range(2)] for r in range(2)]
        )

    def __neg__(self) -> "JetMatrix2":
        return JetMatrix2([[-self[r, c] for c in range(2)] for r in range(2)])

    def __mul__(self, other):
        if isinstance(other, JetMatrix2):
            return JetMatrix2(
                [
                    [
                        sum(
                            (self[r, k] * other[k, c] for k in range(2)),
                            Jet.zero(self.order),
                        )
                        for c in range(2)
                    ]
                    for r in range(2)
                ]
            )
        return self.scale(other)

    def __rmul__(self, other) -> "JetMatrix2":
        return self.scale(other)

    def scale(self, s: "Jet | Scalar") -> "JetMatrix2":
        return JetMatrix2([[self[r, c] * s for c in range(2)] for r in range(2)])

    def apply(self, vec: Sequence[Jet]) -> tuple:
        """Matrix-vector product on a jet 2-vector."""
        return (
            self[0, 0] * vec[0] + self[0, 1] * vec[1],
            self[1, 0] * vec[0] + self[1, 1] * vec[1],
        )

    def dagger(self) -> "JetMatrix2":
        return JetMatrix2(
            [
                [self[0, 0].conjugate(), self[1, 0].conjugate()],
                [self[0, 1].conjugate(), self[1, 1].conjugate()],
            ]
        )

    def det(self) -> Jet:
        return self[0, 0] * self[1, 1] - self[0, 1] * self[1, 0]

    def trace(self) -> Jet:
        return self[0, 0] + self[1, 1]

    def commutator(self, other: "JetMatrix2") -> "JetMatrix2":
        return self * other - other * self

    def allclose(self, other: "JetMatrix2", tol: float = EQ_TOL) -> bool:
        return all(
            self[r, c].allclose(other[r, c], tol) for r in range(2) for c in range(2)
        )

    def max_abs_diff(self, other: "JetMatrix2") -> float:
        return max(
            self[r, c].max_abs_diff(other[r, c]) for r in range(2) for c in range(2)
        )

    def __repr__(self) -> str:
        return f"JetMatrix2({self.entries!r})"


def jet_cos(x: float, order: int = DEFAULT_ORDER) -> Jet:
    """Series of cos(j*x) in j, truncated."""
    c = np.zeros(order + 1, dtype=complex)
    for n in range(0, order + 1, 2):
        c[n] = (-1) ** (n // 2) * x**n / math.factorial(n)
    return Jet(c, order)


def jet_sin(x: float, order: int = DEFAULT_ORDER) -> Jet:
    """Series of sin(j*x) in j, truncated."""
    c = np.zeros(order + 1, dtype=complex)
    for n in range(1, order + 1, 2):
        c[n] = (-1) ** ((n - 1) // 2) * x**n / math.factorial(n)
    return Jet(c, order)
