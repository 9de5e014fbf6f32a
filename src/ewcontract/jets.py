"""Truncated power series ("jets") in the contraction parameter j and
the field scale eps, optionally one per point of a batch.

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

Batch axes hold independent jets: leading ones per spacetime point of a
sampled configuration, per configuration of a stack or per group element,
and trailing ones per field component (a gauge sample's ``a[..., k, mu]``,
a 2x2 matrix's entries). Every operation acts on each batch element alone
and broadcasts like numpy; indexing, :meth:`Jet.sum` and
:meth:`Jet.swapaxes` act on the batch axes only, so a component formula
is a few broadcast products and contractions, and a formula written for
one point evaluates all of them at once. A jet without batch axes (batch
shape ``()``) is the scalar case.

Arithmetic is exact truncated-ring arithmetic over complex coefficients.
Values are immutable; every operation returns a fresh Jet.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

DEFAULT_ORDER = 4

#: coefficient-wise tolerance for jet equality checks (floating drift only)
EQ_TOL = 1e-12

Scalar = Union[int, float, complex]

_COMPLEX = np.dtype(complex)


class JetError(Exception):
    """Base class for jet arithmetic errors."""


class ZeroConstantTerm(JetError):
    """Division by a jet whose constant term vanishes (division by a
    nilpotent-dominated value is undefined)."""


class NonPositiveConstantTerm(JetError):
    """inv_sqrt of a jet whose constant term is not real and positive."""


class Jet:
    """Polynomials in j and eps with complex coefficients, truncated beyond
    j**order and eps**eps_order (0 outside an expansion).

    coeffs[..., n, p] is the coefficient of j**n eps**p; the leading axes,
    if any, are batch axes. Ring axioms hold exactly at fixed truncation
    orders (up to floating point). A jet without eps terms is zero-padded
    to the other operand's eps truncation, which is exact; any other
    mismatch of truncation orders raises. A number, or an array of numbers
    with the batch shape, acts as a constant jet.
    """

    __slots__ = ("coeffs",)

    #: numpy operands defer to Jet's own operators (``ndarray * Jet`` is a
    #: per-batch-element scaling, never an object array)
    __array_ufunc__ = None

    def __init__(self, coeffs: Iterable, order: int = DEFAULT_ORDER,
                 eps_order: int = 0):
        shape = (order + 1, eps_order + 1)
        if (type(coeffs) is np.ndarray and coeffs.shape[-2:] == shape
                and coeffs.dtype is _COMPLEX and not coeffs.flags.writeable):
            # read-only coefficients are shared, never copied
            self.coeffs = coeffs
            return
        c = np.array(coeffs if isinstance(coeffs, np.ndarray) else list(coeffs),
                     dtype=complex)
        if c.ndim < 2 or c.shape[-2:] != shape:
            given = c.reshape(-1, 1) if c.ndim < 2 else c
            c = np.zeros(given.shape[:-2] + shape, dtype=complex)
            rows, cols = min(given.shape[-2], shape[0]), min(given.shape[-1], shape[1])
            c[..., :rows, :cols] = given[..., :rows, :cols]
        c.setflags(write=False)
        self.coeffs = c

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, value: "Scalar | np.ndarray",
              order: int = DEFAULT_ORDER) -> "Jet":
        """A constant jet, or one per element of an array of values."""
        return cls(np.asarray(value, dtype=complex)[..., None, None], order)

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
        return self.coeffs.shape[-2] - 1

    @property
    def eps_order(self) -> int:
        return self.coeffs.shape[-1] - 1

    @property
    def batch_shape(self) -> Tuple[int, ...]:
        return self.coeffs.shape[:-2]

    def grade(self, n: int) -> "complex | np.ndarray":
        """Coefficient of j**n (at eps**0): a complex number, or an array
        of them over the batch axes."""
        if n > self.order:
            raise IndexError(f"grade {n} exceeds truncation order {self.order}")
        value = self.coeffs[..., n, 0]
        return complex(value) if value.ndim == 0 else value

    def mean(self) -> "Jet":
        """Average over the batch axes, coefficient by coefficient."""
        c = self.coeffs
        return self._new(c.reshape((-1,) + c.shape[-2:]).mean(axis=0))

    def __getitem__(self, key) -> "Jet":
        """Batch elements, indexed like numpy (ints, slices, ``...``,
        ``None`` and index arrays) over the batch axes only."""
        key = key if isinstance(key, tuple) else (key,)
        if not any(k is Ellipsis for k in key):
            key += (Ellipsis,)
        return self._new(self.coeffs[key + _COEFF_AXES])

    def _batch_axes(self, axis: "int | Tuple[int, ...]") -> Tuple[int, ...]:
        """Batch axes as non-negative axes of the coefficient array."""
        axes = np.arange(len(self.batch_shape))[np.ravel(axis)]
        return tuple(axes.tolist())

    def sum(self, axis: "int | Tuple[int, ...]" = -1) -> "Jet":
        """Sum over one batch axis or a tuple of them."""
        return self._new(self.coeffs.sum(axis=self._batch_axes(axis)))

    def swapaxes(self, a: int, b: int) -> "Jet":
        """Interchange two batch axes."""
        a, b = self._batch_axes((a, b))
        return self._new(np.swapaxes(self.coeffs, a, b))

    # -- ring operations ----------------------------------------------

    def _lift(self, other: "Jet | Scalar | np.ndarray") -> np.ndarray:
        """Coefficients of an operand: a number or an array of numbers is
        the constant jet at self's truncation orders."""
        if isinstance(other, Jet):
            return other.coeffs
        value = np.asarray(other, dtype=complex)
        c = np.zeros(value.shape + self.coeffs.shape[-2:], dtype=complex)
        c[..., 0, 0] = value
        return c

    def _new(self, coeffs: np.ndarray) -> "Jet":
        """Wrap a freshly computed complex coefficient array (taken over,
        not copied, and not checked again)."""
        coeffs.setflags(write=False)
        jet = Jet.__new__(Jet)
        jet.coeffs = coeffs
        return jet

    def _combined(self, other: "Jet | Scalar | np.ndarray", op) -> "Jet":
        """np.add or np.subtract of coefficients; an operand without eps
        terms lands in the eps**0 column in place (a zero-padded copy of
        it would be one more temporary the size of the result)."""
        a, b = self.coeffs, self._lift(other)
        if a.shape[-2] != b.shape[-2]:
            raise ValueError(f"incompatible truncation orders "
                             f"{a.shape[-2] - 1} != {b.shape[-2] - 1}")
        if a.shape[-1] == b.shape[-1]:
            return self._new(op(a, b))
        width = _product_width(a.shape[-1], b.shape[-1])
        out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
                       + (width,), dtype=complex)
        out[..., :a.shape[-1]] = a
        narrow = out[..., :b.shape[-1]]
        op(narrow, b, out=narrow)
        return self._new(out)

    def __add__(self, other: "Jet | Scalar | np.ndarray") -> "Jet":
        return self._combined(other, np.add)

    __radd__ = __add__

    def __sub__(self, other: "Jet | Scalar | np.ndarray") -> "Jet":
        return self._combined(other, np.subtract)

    def __rsub__(self, other: "Scalar | np.ndarray") -> "Jet":
        return -self + other

    def __neg__(self) -> "Jet":
        return self._new(-self.coeffs)

    def __mul__(self, other: "Jet | Scalar | np.ndarray") -> "Jet":
        if isinstance(other, Jet):
            return self._new(_product(self.coeffs, other.coeffs))
        if not isinstance(other, _FACTORS):  # let other.__rmul__ try
            return NotImplemented
        return self._new(self.coeffs * _factor(other))

    __rmul__ = __mul__

    def __truediv__(self, other: "Jet | Scalar | np.ndarray") -> "Jet":
        if isinstance(other, Jet):
            return self * other.inv()
        if not isinstance(other, _FACTORS):
            return NotImplemented
        return self._new(self.coeffs / _factor(other))

    def __rtruediv__(self, other: "Scalar | np.ndarray") -> "Jet":
        return self.inv() * other

    def conjugate(self) -> "Jet":
        """Coefficient-wise complex conjugation (j and eps stay real)."""
        return self._new(np.conj(self.coeffs))

    def _binomial(self, a0: np.ndarray, power: float) -> np.ndarray:
        """(self / a0) ** power from the binomial series in u = self/a0 - 1,
        which is exact in the truncated ring: u**(order + eps_order + 1) = 0.
        a0 holds the constant term of each batch element, shaped (..., 1, 1);
        the series is summed by Horner's rule."""
        u = self.coeffs / a0
        u[..., 0, 0] = 0.0
        result = np.zeros_like(u)
        if not np.count_nonzero(u):  # a constant jet: every power of u is 0
            result[..., 0, 0] = 1.0
            return result
        series = [1.0]
        for n in range(1, self.order + self.eps_order + 1):
            series.append(series[-1] * (power - (n - 1)) / n)
        result[..., 0, 0] = series.pop()
        for coeff in reversed(series):
            result = _product(u, result)
            result[..., 0, 0] += coeff
        return result

    def inv(self) -> "Jet":
        """Multiplicative inverse; requires a nonzero constant term in every
        batch element."""
        a0 = self.coeffs[..., :1, :1]
        if (a0 == 0.0).any():
            raise ZeroConstantTerm(
                "cannot invert a jet with zero constant term "
                "(division by a nilpotent-dominated value)"
            )
        return self._new(self._binomial(a0, -1.0) / a0)

    def inv_sqrt(self) -> "Jet":
        """1/sqrt of the jet; requires a real, positive constant term in
        every batch element."""
        a0 = self.coeffs[..., :1, :1]
        for value in a0.ravel().tolist():
            if abs(value.imag) > EQ_TOL * max(1.0, abs(value)) or value.real <= 0.0:
                raise NonPositiveConstantTerm(
                    f"inv_sqrt requires a real positive constant term, got {value}"
                )
        return self._new(self._binomial(a0.real, -0.5) * a0.real ** -0.5)

    # -- misc ----------------------------------------------------------

    def allclose(self, other: "Jet | Scalar", tol: float = EQ_TOL) -> bool:
        return bool(np.all(np.abs((self - other).coeffs) <= tol))

    def max_abs_diff(self, other: "Jet | Scalar") -> float:
        return float(np.max(np.abs((self - other).coeffs)))

    def to_json(self) -> list:
        """Serialize one jet in j alone as [[re, im], ...] by grade."""
        if self.eps_order or self.batch_shape:
            raise ValueError("only one jet without eps terms serializes")
        return [[c.real, c.imag] for c in self.coeffs[:, 0]]

    def __repr__(self) -> str:
        return (f"Jet({self.coeffs.tolist()!r}, order={self.order}, "
                f"eps_order={self.eps_order})")


#: index of the two coefficient axes, after a key over the batch axes
_COEFF_AXES = (slice(None), slice(None))

#: operand types that scale a jet's coefficients
_FACTORS = (int, float, complex, np.number, np.ndarray)


def _factor(value: "Scalar | np.ndarray"):
    """A multiplier of coefficient arrays: a number, or an array of numbers
    broadcast over the batch axes."""
    if isinstance(value, np.ndarray) and value.ndim:
        return value[..., None, None]
    return complex(value)


def _product_width(a: int, b: int) -> int:
    """eps columns of a result: equal widths, or a jet without eps terms."""
    if a != b and min(a, b) != 1:
        raise ValueError(f"incompatible eps truncation orders {a - 1} != {b - 1}")
    return max(a, b)


@functools.lru_cache(maxsize=None)
def _pairs(rows: int, ca: int, cb: int) -> np.ndarray:
    """Every coefficient pair of the dense truncated product of arrays with
    `rows` j rows and ca, cb eps columns, as rows (left, right, term): the
    flat (row-major j, eps) index of each pair into each operand and the
    flat term it adds to, sorted by term and then by left index.

    Term (n, p) takes left (k, q) and right (n - k, p - q) for k <= n and
    0 <= p - q < cb; the grid over (n, p, k, q), flattened row-major, is
    in that order, so no sort is needed. The two conditions are read from
    step tables indexed by n - k and p - q: an integer comparison would
    page in numpy code that no product runs."""
    cols = _product_width(ca, cb)
    n, p, k, q = np.ix_(range(rows), range(cols), range(rows), range(ca))
    below = np.zeros(2 * rows - 1, dtype=bool)  # at n - k + rows - 1
    below[rows - 1:] = True
    within = np.zeros(ca + cols - 1, dtype=bool)  # at p - q + ca - 1
    within[ca - 1:ca - 1 + cb] = True
    kept = below[n - k + rows - 1] & within[p - q + ca - 1]
    table = np.stack([np.broadcast_to(index, kept.shape)[kept]
                      for index in (k * ca + q, (n - k) * cb + (p - q),
                                    n * cols + p)])
    table.flags.writeable = False  # shared by every plan of the shape
    return table


@functools.lru_cache(maxsize=256)
def _plan(rows: int, ca: int, cb: int, support_a: bytes, support_b: bytes):
    """Index plan of the truncated product of coefficient arrays with
    `rows` j rows and ca, cb eps columns whose flat (j, eps) positions
    outside support_a, support_b (one byte per position, row-major) are 0
    in every batch element.

    The shape's table of every pair (`_pairs`) is masked by the two
    supports, which keeps its order: by term, then by left index, so each
    term is summed in the order of the dense plan. The plan is (left,
    right, starts, terms): the pairs' indices into each operand, the
    offset of each term's first pair and the flat terms it writes (a slice
    when they are a run). A term with no pair is not written, so supports
    that meet in no kept term give no plan (None). Full supports give the
    dense plan."""
    left, right, term = _pairs(rows, ca, cb)
    kept = (np.frombuffer(support_a, dtype=bool)[left]
            & np.frombuffer(support_b, dtype=bool)[right])
    left, right, term = left[kept], right[kept], term[kept]
    if not len(term):  # e.g. j**3 * j**3 at order 4
        return None
    starts = np.flatnonzero(np.diff(term, prepend=-1))
    written = term[starts]
    for index in (left, right, starts, written):
        index.flags.writeable = False  # shared by every cached call
    # a run of terms is written through a slice, 5x faster than an index
    if written[-1] - written[0] == len(written) - 1:
        written = slice(int(written[0]), int(written[-1]) + 1)
    return left, right, starts, written


def _support(coeffs: np.ndarray) -> bytes:
    """Flat (j, eps) positions that are nonzero in some batch element, one
    byte each; a NaN or an infinity counts as nonzero."""
    nonzero = coeffs.astype(bool)  # coeffs != 0, at a third of the cost
    if nonzero.ndim > 2:  # faster than ndarray.any over a tuple of axes
        nonzero = np.logical_or.reduce(nonzero.reshape((-1,) + nonzero.shape[-2:]))
    return nonzero.tobytes()


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of two coefficient arrays, broadcast over their
    batch axes: each term gathers the coefficient pairs that multiply into
    it, and np.add.reduceat sums them in the order of the dense plan.

    Only pairs whose two positions are in the operands' supports are
    multiplied; every skipped pair has a factor that is exactly 0 in every
    batch element, and a term with no pair left is an exact 0. So a
    0 * inf or 0 * NaN pair is skipped (fields.COUPLING_MAGNITUDES keeps
    sampled values finite), while a NaN still spoils every term where it
    meets a nonzero coefficient."""
    rows, ca, cb = a.shape[-2], a.shape[-1], b.shape[-1]
    if b.shape[-2] != rows:
        raise ValueError(f"incompatible truncation orders {rows - 1} != "
                         f"{b.shape[-2] - 1}")
    # np.broadcast_shapes takes twice as long on small operands
    batch = np.broadcast(a[..., 0, 0], b[..., 0, 0]).shape
    cols = _product_width(ca, cb)
    out = np.zeros(batch + (rows * cols,), dtype=complex)
    support_a, support_b = _support(a), _support(b)
    # a zero operand has no pairs: it looks up no plan
    plan = (1 in support_a and 1 in support_b
            and _plan(rows, ca, cb, support_a, support_b))
    if plan:
        left, right, starts, terms = plan
        out[..., terms] = np.add.reduceat(
            _gather(a, left) * _gather(b, right), starts, axis=-1)
    return out.reshape(batch + (rows, cols))


def _gather(coeffs: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Coefficients at flat (row-major j, eps) positions, per batch element."""
    if coeffs.ndim == 2:
        return coeffs.ravel()[index]
    return coeffs.reshape(coeffs.shape[:-2] + (-1,)).take(index, axis=-1)


def stack(items: Sequence[Jet], axis: int = -1) -> Jet:
    """Jets of one coefficient shape stacked on a new batch axis."""
    first = items[0]
    shape = first.coeffs.shape
    if not -len(shape) + 1 <= axis <= len(shape) - 2:
        raise IndexError(f"axis {axis} is not a batch axis of a stack of {shape[:-2]}")
    if any(x.coeffs.shape != shape for x in items):
        raise ValueError("stacked jets need equal batch shapes, truncation orders and eps "
                         f"truncation, not {sorted({x.coeffs.shape for x in items})}")
    return first._new(np.stack([x.coeffs for x in items],
                               axis=axis if axis >= 0 else axis - 2))


def jparam(order: int = DEFAULT_ORDER, jval: float | None = None) -> Jet:
    """The contraction parameter as a jet: the formal variable j by default,
    or a plain number (an untruncated numeric-j run) when jval is given."""
    if jval is None:
        return Jet.variable(order)
    return Jet.const(jval, order)


class JetMatrix2:
    """2x2 matrices over jets: group elements, algebra elements, gauge
    fields. One jet holds the entries on its trailing (2, 2) batch axes,
    after any batch axes of its own."""

    __slots__ = ("jet",)

    def __init__(self, entries: "Jet | Sequence[Sequence[Jet]]"):
        if not isinstance(entries, Jet):
            entries = stack([stack(row) for row in entries], axis=-2)
        if entries.batch_shape[-2:] != (2, 2):
            raise ValueError("a jet matrix needs trailing (2, 2) batch axes")
        self.jet = entries

    @classmethod
    def identity(cls, order: int = DEFAULT_ORDER) -> "JetMatrix2":
        return cls(Jet.const(np.eye(2), order))

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "JetMatrix2":
        return cls(Jet.const(np.zeros((2, 2)), order))

    @property
    def order(self) -> int:
        return self.jet.order

    def __getitem__(self, idx) -> Jet:
        r, c = idx
        return self.jet[..., r, c]

    def __add__(self, other: "JetMatrix2") -> "JetMatrix2":
        return JetMatrix2(self.jet + other.jet)

    def __sub__(self, other: "JetMatrix2") -> "JetMatrix2":
        return JetMatrix2(self.jet - other.jet)

    def __neg__(self) -> "JetMatrix2":
        return JetMatrix2(-self.jet)

    def __mul__(self, other: "JetMatrix2 | Jet | Scalar") -> "JetMatrix2":
        """Matrix product, or every entry times a jet or a number."""
        if isinstance(other, JetMatrix2):
            a, b = self.jet, other.jet
            return JetMatrix2(a[..., :, 0, None] * b[..., None, 0, :]
                              + a[..., :, 1, None] * b[..., None, 1, :])
        if isinstance(other, Jet):
            other = other[..., None, None]
        return JetMatrix2(self.jet * other)

    def __rmul__(self, other: "Jet | Scalar") -> "JetMatrix2":
        return self * other

    def apply(self, vec: Jet) -> Jet:
        """Matrix-vector product on a jet 2-vector (trailing axis 2)."""
        return (self.jet * vec[..., None, :]).sum(-1)

    def dagger(self) -> "JetMatrix2":
        return JetMatrix2(self.jet.swapaxes(-1, -2).conjugate())

    def det(self) -> Jet:
        return self[0, 0] * self[1, 1] - self[0, 1] * self[1, 0]

    def trace(self) -> Jet:
        return self[0, 0] + self[1, 1]

    def commutator(self, other: "JetMatrix2") -> "JetMatrix2":
        return self * other - other * self

    def max_abs_diff(self, other: "JetMatrix2") -> float:
        return self.jet.max_abs_diff(other.jet)

    def __repr__(self) -> str:
        return f"JetMatrix2({self.jet!r})"


def _series(x: "float | np.ndarray", order: int, first: int) -> Jet:
    """sum_n (-1)**(n // 2) (j x)**n / n! over n = first, first + 2, ...,
    one jet per element of x."""
    x = np.asarray(x, dtype=float)
    c = np.zeros(x.shape + (order + 1, 1), dtype=complex)
    for n in range(first, order + 1, 2):
        c[..., n, 0] = (-1) ** (n // 2) * x**n / math.factorial(n)
    return Jet(c, order)


def jet_cos(x: "float | np.ndarray", order: int = DEFAULT_ORDER) -> Jet:
    """Series of cos(j*x) in j, truncated; an array x gives a batch."""
    return _series(x, order, 0)


def jet_sin(x: "float | np.ndarray", order: int = DEFAULT_ORDER) -> Jet:
    """Series of sin(j*x) in j, truncated; an array x gives a batch."""
    return _series(x, order, 1)
