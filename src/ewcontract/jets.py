"""Truncated power series ("jets") in the contraction parameter j.

A :class:`Jet` stores the coefficients of a polynomial in j, truncated at a
fixed maximum power. Setting j = 1 recovers ordinary arithmetic, reading off
the constant term realizes the nilpotent unit (j**2 == 0 after grade 1), and
evaluating at a small real t gives the numeric-limit picture. All three views
of the contraction are therefore carried by a single exact data structure:
coefficients can be read off at any grade instead of ever dividing by j.

Arithmetic is exact truncated-ring arithmetic over complex coefficients.
Values are immutable; every operation returns a fresh Jet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

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


@dataclass(frozen=True)
class ContractionMode:
    """How the contraction parameter j is interpreted when a jet is
    collapsed to a number.

    kind is one of "unit" (j=1), "nilpotent" (j=iota, iota**2=0) or
    "numeric" (j=t for a small real 0 < t <= 1).
    """

    kind: str
    t: float = 1.0

    def __post_init__(self):
        if self.kind not in ("unit", "nilpotent", "numeric"):
            raise ValueError(f"unknown contraction mode {self.kind!r}")
        if self.kind == "numeric" and not 0.0 < self.t <= 1.0:
            raise ValueError("numeric contraction parameter must satisfy 0 < t <= 1")

    @classmethod
    def unit(cls) -> "ContractionMode":
        return cls("unit")

    @classmethod
    def nilpotent(cls) -> "ContractionMode":
        return cls("nilpotent")

    @classmethod
    def numeric(cls, t: float) -> "ContractionMode":
        return cls("numeric", float(t))

    @classmethod
    def parse(cls, text: str) -> "ContractionMode":
        """Parse 'unit' | 'nilpotent' | 'numeric:<t>'."""
        if text == "unit":
            return cls.unit()
        if text == "nilpotent":
            return cls.nilpotent()
        if text.startswith("numeric:"):
            return cls.numeric(float(text.split(":", 1)[1]))
        raise ValueError(f"cannot parse contraction mode {text!r}")

    def __str__(self) -> str:
        return self.kind if self.kind != "numeric" else f"numeric:{self.t}"


class Jet:
    """Polynomial in j with complex coefficients, truncated beyond `order`.

    coeffs[n] is the coefficient of j**n. Ring axioms hold exactly at fixed
    truncation order (up to floating point).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar], order: int = DEFAULT_ORDER):
        c = np.zeros(order + 1, dtype=complex)
        given = np.asarray(list(coeffs), dtype=complex)
        if len(given) > order + 1:
            given = given[: order + 1]
        c[: len(given)] = given
        self.coeffs = c
        self.coeffs.flags.writeable = False

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
        return len(self.coeffs) - 1

    def grade(self, n: int) -> complex:
        """Coefficient of j**n."""
        if n > self.order:
            raise IndexError(f"grade {n} exceeds truncation order {self.order}")
        return complex(self.coeffs[n])

    def evaluate(self, mode: ContractionMode) -> complex:
        """Collapse the jet to a number for a given contraction regime."""
        if mode.kind == "unit":
            return complex(self.coeffs.sum())
        if mode.kind == "nilpotent":
            return complex(self.coeffs[0])
        return complex(np.polyval(self.coeffs[::-1], mode.t))

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(value: "Jet | Scalar", order: int) -> "Jet":
        if isinstance(value, Jet):
            return value
        return Jet.const(value, order)

    def _check(self, other: "Jet") -> None:
        if other.order != self.order:
            raise ValueError(
                f"incompatible truncation orders {self.order} != {other.order}"
            )

    def __add__(self, other: "Jet | Scalar") -> "Jet":
        other = self._coerce(other, self.order)
        self._check(other)
        return Jet(self.coeffs + other.coeffs, self.order)

    __radd__ = __add__

    def __sub__(self, other: "Jet | Scalar") -> "Jet":
        other = self._coerce(other, self.order)
        self._check(other)
        return Jet(self.coeffs - other.coeffs, self.order)

    def __rsub__(self, other: Scalar) -> "Jet":
        return Jet.const(other, self.order) - self

    def __neg__(self) -> "Jet":
        return Jet(-self.coeffs, self.order)

    def __mul__(self, other: "Jet | Scalar") -> "Jet":
        if not isinstance(other, Jet):
            return Jet(self.coeffs * complex(other), self.order)
        self._check(other)
        prod = np.convolve(self.coeffs, other.coeffs)[: self.order + 1]
        return Jet(prod, self.order)

    __rmul__ = __mul__

    def __truediv__(self, other: "Jet | Scalar") -> "Jet":
        if not isinstance(other, Jet):
            return Jet(self.coeffs / complex(other), self.order)
        return self * other.inv()

    def __rtruediv__(self, other: Scalar) -> "Jet":
        return Jet.const(other, self.order) * self.inv()

    def conjugate(self) -> "Jet":
        """Coefficient-wise complex conjugation (j itself stays real)."""
        return Jet(np.conj(self.coeffs), self.order)

    def inv(self) -> "Jet":
        """Multiplicative inverse; requires a nonzero constant term."""
        a = self.coeffs
        if abs(a[0]) == 0.0:
            raise ZeroConstantTerm(
                "cannot invert a jet with zero constant term "
                "(division by a nilpotent-dominated value)"
            )
        b = np.zeros_like(a)
        b[0] = 1.0 / a[0]
        for n in range(1, len(a)):
            b[n] = -(a[1 : n + 1] @ b[n - 1 :: -1]) / a[0]
        return Jet(b, self.order)

    def inv_sqrt(self) -> "Jet":
        """1/sqrt of the jet; requires a real, positive constant term.

        Computed from the binomial series (1+u)**(-1/2) with u the
        nilpotent remainder after factoring out the constant term.
        """
        a0 = self.coeffs[0]
        if abs(a0.imag) > EQ_TOL * max(1.0, abs(a0)) or a0.real <= 0.0:
            raise NonPositiveConstantTerm(
                f"inv_sqrt requires a real positive constant term, got {a0}"
            )
        u = Jet(self.coeffs / a0.real, self.order) - 1.0
        result = Jet.const(1.0, self.order)
        term = Jet.const(1.0, self.order)
        coeff = 1.0
        for n in range(1, self.order + 1):
            coeff *= (-0.5 - (n - 1)) / n
            term = term * u
            result = result + coeff * term
        return result * (a0.real ** -0.5)

    # -- misc ----------------------------------------------------------

    def allclose(self, other: "Jet | Scalar", tol: float = EQ_TOL) -> bool:
        other = self._coerce(other, self.order)
        return bool(np.all(np.abs(self.coeffs - other.coeffs) <= tol))

    def max_abs_diff(self, other: "Jet | Scalar") -> float:
        other = self._coerce(other, self.order)
        return float(np.max(np.abs(self.coeffs - other.coeffs)))

    def to_json(self) -> list:
        """Serialize as [[re, im], ...] by grade."""
        return [[c.real, c.imag] for c in self.coeffs]

    def __repr__(self) -> str:
        terms = []
        for n, c in enumerate(self.coeffs):
            if abs(c) > 0:
                terms.append(f"({c:.6g})j^{n}" if n else f"({c:.6g})")
        return "Jet(" + (" + ".join(terms) if terms else "0") + f", order={self.order})"


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

    def to_json(self) -> list:
        return [[self[r, c].to_json() for c in range(2)] for r in range(2)]

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
