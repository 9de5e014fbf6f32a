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

A jet stores only the leading block of its coefficients: the j rows and
eps columns up to the highest grade and eps power its value reaches (a
sample times eps is a block of at most two rows and two columns at any
truncation). Every coefficient outside the block is exactly 0, and the
truncation orders are attributes of the jet, so arithmetic allocates and
multiplies blocks and its cost follows the degrees the values reach, not
the truncation. :attr:`Jet.coeffs` is the full-shape view for readers.

Batch axes hold independent jets: leading ones per spacetime point of a
sampled configuration, per configuration of a stack or per group element,
and trailing ones per field component (a gauge sample's ``a[..., k, mu]``,
a 2x2 matrix's entries). Every operation acts on each batch element alone
and broadcasts like numpy; indexing, :meth:`Jet.sum` and
:meth:`Jet.swapaxes` act on the batch axes only, so a component formula
is a few broadcast products and contractions, and a formula written for
one point evaluates all of them at once. A jet without batch axes (batch
shape ``()``) is the scalar case.

Arithmetic is exact truncated-ring arithmetic. A block is float64 when its
values are real (samples, the grading, j, eps) and complex128 when they are
not (spinors, the doublet, the group), and an operation with a complex
operand promotes as numpy does. :func:`contract` is ``(a * b).sum(axes)``
without the broadcast product. Values are immutable; every operation
returns a fresh Jet.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

DEFAULT_ORDER = 4

#: the fewest coefficient pairs of a product for which `contract` sums
#: each pair over the batch axes first; a plan's count, never the batch
#: shape, so no batch element's value depends on its batch. Time in the
#: contractions per command, one process on one CPU of a 2-vCPU host:
#: never fused, at 6 and at 1 pair, verify 6.3, 5.2 and 5.3 ms (6.7 at
#: 12), spectrum (at most 4 pairs) 0.143, 0.143 and 0.151 ms, expand at
#: order 8 0.64, 0.40 and 0.40 ms (0.48 at 24)
CONTRACT_PAIRS = 6

#: imaginary drift, relative, that inv_sqrt allows in a real constant term
EQ_TOL = 1e-12

Scalar = Union[int, float, complex]

_REAL, _COMPLEX = np.dtype(float), np.dtype(complex)


class JetError(Exception):
    """Base class for jet arithmetic errors."""


class ZeroConstantTerm(JetError):
    """Division by a jet whose constant term vanishes (division by a
    nilpotent-dominated value is undefined)."""


class NonPositiveConstantTerm(JetError):
    """inv_sqrt of a jet whose constant term is not real and positive."""


class Jet:
    """Polynomials in j and eps with real or complex coefficients, truncated
    beyond j**order and eps**eps_order (0 outside an expansion).

    block[..., n, p] is the coefficient of j**n eps**p over the block's
    leading rows and columns, and every other coefficient up to the
    truncation is 0; `coeffs` is the full array. The leading axes, if any,
    are batch axes. Ring axioms hold exactly at fixed truncation orders
    (up to floating point). A jet without eps terms is zero-padded to the
    other operand's eps truncation, which is exact; any other mismatch of
    truncation orders raises. A number, or an array of numbers with the
    batch shape, acts as a constant jet.
    """

    __slots__ = ("block", "order", "eps_order")

    #: numpy operands defer to Jet's own operators (``ndarray * Jet`` is a
    #: per-batch-element scaling, never an object array)
    __array_ufunc__ = None

    def __init__(self, coeffs: Iterable, order: int = DEFAULT_ORDER,
                 eps_order: int = 0):
        """A jet from its leading coefficients: a sequence of grades, or an
        array whose last two axes are j rows and eps columns. The block is
        stored as given, without rows or columns beyond the truncation, as
        float64 when every coefficient is real and complex128 otherwise;
        read-only float64 or complex128 coefficients are shared, never
        copied."""
        self.order, self.eps_order = order, eps_order
        c = coeffs
        if not (type(c) is np.ndarray and (c.dtype is _REAL or c.dtype is _COMPLEX)
                and c.ndim >= 2 and not c.flags.writeable):
            c = _values(np.array(c if isinstance(c, np.ndarray) else list(c)))
            if c.ndim < 2:
                c = c.reshape(-1, 1)
        if c.shape[-2] > order + 1 or c.shape[-1] > eps_order + 1:
            c = c[..., :order + 1, :eps_order + 1]
        if not c.shape[-2] or not c.shape[-1]:  # no coefficient: zero
            c = np.zeros(c.shape[:-2] + (1, 1), dtype=c.dtype)
        c.setflags(write=False)
        self.block = c

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, value: "Scalar | np.ndarray",
              order: int = DEFAULT_ORDER) -> "Jet":
        """A constant jet, or one per element of an array of values."""
        return cls(_values(np.asarray(value))[..., None, None], order)

    @classmethod
    def variable(cls, order: int = DEFAULT_ORDER) -> "Jet":
        """The jet representing j itself."""
        return cls([0.0, 1.0], order)

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "Jet":
        return cls([], order)

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        """The read-only coefficients at full shape, (..., order + 1,
        eps_order + 1): coeffs[..., n, p] is the coefficient of j**n eps**p."""
        block = self.block
        rows, cols = block.shape[-2:]
        shape = (self.order + 1, self.eps_order + 1)
        if (rows, cols) == shape:
            return block
        full = np.zeros(block.shape[:-2] + shape, dtype=block.dtype)
        full[..., :rows, :cols] = block
        full.setflags(write=False)
        return full

    @property
    def batch_shape(self) -> Tuple[int, ...]:
        return self.block.shape[:-2]

    def grade(self, n: int) -> "complex | np.ndarray":
        """Coefficient of j**n (at eps**0) for 0 <= n <= order: a complex
        number, or an array of them over the batch axes. Any other n raises
        IndexError; a negative n would read a row of the stored block."""
        if not 0 <= n <= self.order:
            raise IndexError(f"grade {n} is outside 0..{self.order}")
        block = self.block
        value = (block[..., n, 0] if n < block.shape[-2]
                 else np.zeros(block.shape[:-2], dtype=complex))
        return complex(value) if value.ndim == 0 else value.astype(_COMPLEX, copy=False)

    def mean(self) -> "Jet":
        """Average over the batch axes, coefficient by coefficient."""
        c = self.block
        return self._new(c.reshape((-1,) + c.shape[-2:]).mean(axis=0))

    def __getitem__(self, key) -> "Jet":
        """Batch elements, indexed like numpy (ints, slices, ``...``,
        ``None`` and index arrays) over the batch axes only."""
        key = key if isinstance(key, tuple) else (key,)
        if not any(k is Ellipsis for k in key):
            key += (Ellipsis,)
        return self._new(self.block[key + _COEFF_AXES])

    def _batch_axes(self, axis: "int | Tuple[int, ...]") -> Tuple[int, ...]:
        """Batch axes as non-negative axes of the coefficient array."""
        axes = np.arange(len(self.batch_shape))[np.ravel(axis)]
        return tuple(axes.tolist())

    def sum(self, axis: "int | Tuple[int, ...]" = -1) -> "Jet":
        """Sum over one batch axis or a tuple of them."""
        return self._new(self.block.sum(axis=self._batch_axes(axis)))

    def swapaxes(self, a: int, b: int) -> "Jet":
        """Interchange two batch axes."""
        a, b = self._batch_axes((a, b))
        return self._new(np.swapaxes(self.block, a, b))

    # -- ring operations ----------------------------------------------

    def _new(self, block: np.ndarray, eps_order: "int | None" = None) -> "Jet":
        """Wrap a freshly computed block at self's truncation orders
        or at eps_order (taken over, not copied, and not checked again)."""
        block.setflags(write=False)
        jet = Jet.__new__(Jet)
        jet.block = block
        jet.order = self.order
        jet.eps_order = self.eps_order if eps_order is None else eps_order
        return jet

    def _eps_order(self, other: "Jet") -> int:
        """eps truncation of a result of self and other: their truncation
        orders must be equal, and so must their eps truncations unless one
        has no eps terms."""
        a, b = self.eps_order, other.eps_order
        if other.order == self.order and (a == b or not a or not b):
            return max(a, b)
        if other.order != self.order:
            raise ValueError(f"incompatible truncation orders "
                             f"{self.order} != {other.order}")
        raise ValueError(f"incompatible eps truncation orders {a} != {b}")

    def _combined(self, other: "Jet | Scalar | np.ndarray", op) -> "Jet":
        """np.add or np.subtract of coefficients. The result's block spans
        both operands' blocks; a block smaller than the other is combined
        into its corner in place (a zero-padded copy of it would be one more
        temporary the size of the result). A number or an array of numbers
        is a constant jet, a block of one coefficient."""
        a = self.block
        if isinstance(other, _NUMBERS):  # only the constant term changes
            out = a.astype(complex) if isinstance(other, _IMAGINARY) else a.copy()
            constant = out[..., :1, :1]
            op(constant, other, out=constant)
            return self._new(out)
        if isinstance(other, Jet):
            b, eps_order = other.block, self._eps_order(other)
        else:
            b = _values(np.asarray(other))[..., None, None]
            eps_order = self.eps_order
        if a.shape[-2:] == b.shape[-2:]:
            return self._new(op(a, b), eps_order)
        # np.broadcast_shapes takes twice as long on small operands
        batch = np.broadcast(a[..., 0, 0], b[..., 0, 0]).shape
        out = np.zeros(batch + (max(a.shape[-2], b.shape[-2]),
                                max(a.shape[-1], b.shape[-1])), dtype=_dtype(a, b))
        out[..., :a.shape[-2], :a.shape[-1]] = a
        corner = out[..., :b.shape[-2], :b.shape[-1]]
        op(corner, b, out=corner)
        return self._new(out, eps_order)

    def __add__(self, other: "Jet | Scalar | np.ndarray") -> "Jet":
        return self._combined(other, np.add)

    __radd__ = __add__

    def __sub__(self, other: "Jet | Scalar | np.ndarray") -> "Jet":
        return self._combined(other, np.subtract)

    def __rsub__(self, other: "Scalar | np.ndarray") -> "Jet":
        return -self + other

    def __neg__(self) -> "Jet":
        return self._new(-self.block)

    def __mul__(self, other: "Jet | Scalar | np.ndarray") -> "Jet":
        if isinstance(other, Jet):
            eps_order = self._eps_order(other)
            return self._new(_product(self.block, other.block, self.order + 1,
                                      eps_order + 1), eps_order)
        if not isinstance(other, _FACTORS):  # let other.__rmul__ try
            return NotImplemented
        return self._new(self.block * _factor(other))

    __rmul__ = __mul__

    def __truediv__(self, other: "Jet | Scalar | np.ndarray") -> "Jet":
        if isinstance(other, Jet):
            return self * other.inv()
        if not isinstance(other, _FACTORS):
            return NotImplemented
        return self._new(self.block / _factor(other))

    def __rtruediv__(self, other: "Scalar | np.ndarray") -> "Jet":
        return self.inv() * other

    def conjugate(self) -> "Jet":
        """Coefficient-wise complex conjugation (j and eps stay real); a
        real jet is its own conjugate."""
        if self.block.dtype is _REAL:
            return self
        return self._new(np.conj(self.block))

    def _binomial(self, a0: np.ndarray, power: float) -> np.ndarray:
        """(self / a0) ** power from the binomial series in u = self/a0 - 1,
        summed by Horner's rule up to the last power of u that the
        truncation keeps. a0 holds the constant term of each batch element,
        shaped (..., 1, 1).

        u**m is 0 once m times u's lowest grade exceeds order, m times its
        lowest eps power exceeds eps_order, or m times its lowest total
        degree exceeds order + eps_order; each is read off the support of u
        over the whole batch. The series stops before that power, which is
        exact: the terms it drops only ever meet truncated products, so
        every kept coefficient sums the same pairs in the same order as a
        series of full depth."""
        u = self.block / a0
        u[..., 0, 0] = 0.0
        cols = u.shape[-1]
        live = [divmod(i, cols) for i, nonzero in enumerate(_support(u)) if nonzero]
        depth = 1  # a constant jet: every power of u is 0
        if live:
            grades, powers = zip(*live)
            depth += min(top // low for top, low in (
                (self.order, min(grades)), (self.eps_order, min(powers)),
                (self.order + self.eps_order, min(map(sum, live)))) if low)
        series = [1.0]
        for n in range(1, depth):
            series.append(series[-1] * (power - (n - 1)) / n)
        result = np.zeros(u.shape[:-2] + (1, 1), dtype=u.dtype)
        result[..., 0, 0] = series.pop()
        for coeff in reversed(series):
            result = _product(u, result, self.order + 1, self.eps_order + 1)
            result[..., 0, 0] += coeff
        return result

    def inv(self) -> "Jet":
        """Multiplicative inverse; requires a nonzero constant term in every
        batch element."""
        a0 = self.block[..., :1, :1]
        if (a0 == 0.0).any():
            raise ZeroConstantTerm(
                "cannot invert a jet with zero constant term "
                "(division by a nilpotent-dominated value)"
            )
        return self._new(self._binomial(a0, -1.0) / a0)

    def inv_sqrt(self) -> "Jet":
        """1/sqrt of the jet; requires a real, positive constant term in
        every batch element."""
        a0 = self.block[..., :1, :1]
        for value in a0.ravel().tolist():
            if abs(value.imag) > EQ_TOL * max(1.0, abs(value)) or value.real <= 0.0:
                raise NonPositiveConstantTerm(
                    f"inv_sqrt requires a real positive constant term, got {value}"
                )
        return self._new(self._binomial(a0.real, -0.5) * a0.real ** -0.5)

    # -- misc ----------------------------------------------------------

    def max_abs_diff(self, other: "Jet | Scalar") -> float:
        return float(np.max(np.abs((self - other).block)))

    def __repr__(self) -> str:
        return (f"Jet({self.coeffs.tolist()!r}, order={self.order}, "
                f"eps_order={self.eps_order})")


#: index of the two coefficient axes, after a key over the batch axes
_COEFF_AXES = (slice(None), slice(None))

#: operand types that act as one constant jet
_NUMBERS = (int, float, complex, np.number)

#: numbers that make a real block complex
_IMAGINARY = (complex, np.complexfloating)

#: operand types that scale a jet's coefficients
_FACTORS = _NUMBERS + (np.ndarray,)


def _factor(value: "Scalar | np.ndarray"):
    """A multiplier of coefficient arrays: a number, or an array of numbers
    broadcast over the batch axes."""
    if isinstance(value, np.ndarray):
        return value[..., None, None] if value.ndim else value[()]
    return value


def _values(values: np.ndarray) -> np.ndarray:
    """Numbers as float64, or as complex128 when they are complex."""
    return values.astype(_COMPLEX if values.dtype.kind == "c" else _REAL, copy=False)


def _dtype(a: np.ndarray, b: np.ndarray) -> np.dtype:
    """The dtype numpy gives a sum or product of two blocks."""
    return a.dtype if a.dtype is b.dtype else _COMPLEX


@functools.lru_cache(maxsize=None)
def _term_table(rows: int, cols: int) -> np.ndarray:
    """Every coefficient pair of the dense truncated product at `rows` j
    rows and `cols` eps columns, as rows (k, q, n - k, p - q, n, p): term
    j**n eps**p takes left (k, q) and right (n - k, p - q). The grid over
    (n, p, k, q), flattened row-major, is in that order: by term, then by
    left position. Every plan at this truncation is a mask of it."""
    n, p, k, q = np.ix_(range(rows), range(cols), range(rows), range(cols))
    kept = (k <= n) & (q <= p)
    table = np.stack([np.broadcast_to(index, kept.shape)[kept]
                      for index in (k, q, n - k, p - q, n, p)])
    table.flags.writeable = False  # shared by every plan of the truncation
    return table


@functools.lru_cache(maxsize=256)
def _plan(block_a: Tuple[int, int], block_b: Tuple[int, int], rows: int,
          cols: int, support_a: bytes, support_b: bytes):
    """Index plan of the truncated product, at `rows` j rows and `cols` eps
    columns, of coefficient blocks of shapes block_a and block_b whose flat
    (row-major j, eps) positions outside support_a, support_b (one byte per
    position) are 0 in every batch element.

    The truncation's table of every pair (`_term_table`) is masked to the
    pairs inside both blocks and both supports, which keeps its order: by
    term, then by left index, so each term is summed in the order of the
    dense plan. The plan is (left, right, starts, terms, shape): the pairs'
    indices into each block, the offset of each term's first pair, and the
    flat terms it writes in a result block of that shape, the smallest that
    holds them (None when they are the whole block, a slice when they are a
    run). A term with no pair is not written, so supports that meet in no
    kept term give no plan (None)."""
    table = _term_table(rows, cols)
    inside = []
    for block, support in ((block_a, support_a), (block_b, support_b)):
        padded = np.zeros((rows, cols), dtype=bool)
        padded[:block[0], :block[1]] = np.frombuffer(support, dtype=bool).reshape(block)
        inside.append(padded)
    k, q, r, s, n, p = table[:, inside[0][table[0], table[1]]
                             & inside[1][table[2], table[3]]]
    if not len(n):  # e.g. j**3 * j**3 at order 4
        return None
    left, right = k * block_a[1] + q, r * block_b[1] + s
    shape = (int(n[-1]) + 1, max(p.tolist()) + 1)
    term = n * shape[1] + p
    starts = np.flatnonzero(np.diff(term, prepend=-1))
    written = term[starts]
    for index in (left, right, starts, written):
        index.flags.writeable = False  # shared by every cached call
    if len(written) == shape[0] * shape[1]:
        written = None
    # a run of terms is written through a slice, 5x faster than an index
    elif written[-1] - written[0] == len(written) - 1:
        written = slice(int(written[0]), int(written[-1]) + 1)
    return left, right, starts, written, shape


def _support(coeffs: np.ndarray) -> bytes:
    """Flat (j, eps) positions that are nonzero in some batch element, one
    byte each; a NaN or an infinity counts as nonzero."""
    nonzero = coeffs.astype(bool)  # coeffs != 0, at a third of the cost
    if nonzero.ndim > 2:  # faster than ndarray.any over a tuple of axes
        nonzero = np.logical_or.reduce(nonzero.reshape((-1,) + nonzero.shape[-2:]))
    return nonzero.tobytes()


def _product(a: np.ndarray, b: np.ndarray, rows: int, cols: int,
             axes: "int | Tuple[int, ...] | None" = None) -> np.ndarray:
    """Truncated product of two coefficient blocks at `rows` j rows and
    `cols` eps columns, broadcast over their batch axes: each term gathers
    the coefficient pairs that multiply into it, and np.add.reduceat sums
    them in the order of the dense plan. The result is the block of the
    terms the plan writes.

    Only pairs whose two positions are in the operands' supports are
    multiplied; every skipped pair has a factor that is exactly 0 in every
    batch element, and a term with no pair left is an exact 0. So a
    0 * inf or 0 * NaN pair is skipped (fields.COUPLING_MAGNITUDES keeps
    sampled values finite), while a NaN still spoils every term where it
    meets a nonzero coefficient. Given batch `axes` and CONTRACT_PAIRS pairs
    or more, np.einsum sums each pair over them first: the result is summed."""
    support_a, support_b = _support(a), _support(b)
    # a zero operand has no pairs: it looks up no plan
    plan = (1 in support_a and 1 in support_b
            and _plan(a.shape[-2:], b.shape[-2:], rows, cols,
                      support_a, support_b))
    if not plan:
        # np.broadcast_shapes takes twice as long on small operands
        batch = np.broadcast(a[..., 0, 0], b[..., 0, 0]).shape
        return np.zeros(batch + (1, 1), dtype=_dtype(a, b))
    left, right, starts, terms, shape = plan
    if axes is None or len(left) < CONTRACT_PAIRS:
        pairs = _gather(a, left) * _gather(b, right)
    else:  # batch axes 0..n - 1 of the product, then the pair axis n
        n = max(a.ndim, b.ndim) - 2
        summed = np.arange(n)[np.ravel(axes)].tolist()
        pairs = np.einsum(_gather(a, left), list(range(n + 2 - a.ndim, n + 1)),
                          _gather(b, right), list(range(n + 2 - b.ndim, n + 1)),
                          [i for i in range(n + 1) if i not in summed])
    sums = np.add.reduceat(pairs, starts, axis=-1)
    batch = sums.shape[:-1]
    if terms is not None:
        out = np.zeros(batch + (shape[0] * shape[1],), dtype=sums.dtype)
        out[..., terms] = sums
        sums = out
    return sums.reshape(batch + shape)


def _gather(coeffs: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Coefficients at flat (row-major j, eps) positions, per batch element."""
    if coeffs.ndim == 2:
        return coeffs.ravel()[index]
    return coeffs.reshape(coeffs.shape[:-2] + (-1,)).take(index, axis=-1)


def stack(items: Sequence[Jet], axis: int = -1) -> Jet:
    """Jets of one batch shape and truncation stacked on a new batch axis;
    blocks of different shapes are zero-padded to the largest rows and
    columns in the one allocation of the result."""
    first = items[0]
    batch = first.batch_shape
    if not -len(batch) - 1 <= axis <= len(batch):
        raise IndexError(f"axis {axis} is not a batch axis of a stack of {batch}")
    if any(x.batch_shape != batch or x.order != first.order
           or x.eps_order != first.eps_order for x in items):
        raise ValueError(
            "stacked jets need equal batch shapes, truncation orders and eps "
            f"truncation, not {sorted({(x.batch_shape, x.order, x.eps_order) for x in items})}")
    blocks = [x.block for x in items]
    axis %= len(batch) + 1
    rows = max(block.shape[-2] for block in blocks)
    cols = max(block.shape[-1] for block in blocks)
    if all(block.shape[-2:] == (rows, cols) for block in blocks):
        return first._new(np.stack(blocks, axis))
    out = np.zeros(batch[:axis] + (len(blocks),) + batch[axis:] + (rows, cols),
                   dtype=_REAL if all(b.dtype is _REAL for b in blocks) else _COMPLEX)
    for i, block in enumerate(blocks):
        out[(slice(None),) * axis + (i, Ellipsis, slice(block.shape[-2]),
                                     slice(block.shape[-1]))] = block
    return first._new(out)


def contract(a: Jet, b: Jet, axes: "int | Tuple[int, ...]") -> Jet:
    """(a * b).sum(axes). A product of CONTRACT_PAIRS coefficient pairs or
    more sums each pair over the axes before it sums the pairs of each
    term, so the broadcast product is never formed; that order of the sums
    agrees with a product and a sum to round-off."""
    eps_order = a._eps_order(b)
    block = _product(a.block, b.block, a.order + 1, eps_order + 1, axes)
    product = a._new(block, eps_order)
    summed = block.ndim < max(a.block.ndim, b.block.ndim)  # by the pairs first
    return product if summed else product.sum(axes)


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

