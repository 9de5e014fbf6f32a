"""The contracted gauge group SU(2;j), its Lie algebra, U(1) and U(1)_em.

Generators carry the contraction parameter explicitly: T1 and T2 are
multiplied by j, T3 is not. Group elements are 2x2 jet matrices; the
exponential map is computed as a truncated matrix-exponential series, with
closed forms (diagonal subgroup, nilpotent off-diagonal formula, standard
SU(2) formula at j=1) available as cross-checks.

Angles, generator indices, algebra coefficients and doublet components
may be arrays: the result is then a batch of elements, one per array
element, held as jets with that leading batch shape; a matrix's entries
and a doublet's components sit on trailing batch axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple, Union

import numpy as np

from .jets import DEFAULT_ORDER, Jet, JetMatrix2, jet_cos, jet_sin, jparam, stack

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

EXP_SERIES_TERMS = 20

#: a number, or an array of numbers for a batch of elements
Param = Union[float, np.ndarray]


@dataclass(frozen=True)
class AlgebraElement:
    """Element a1*T1(j) + a2*T2(j) + a3*T3(j) of su(2;j)."""

    a1: float
    a2: float
    a3: float
    matrix: JetMatrix2 = field(compare=False)


def generator(k: int, order: int = DEFAULT_ORDER,
              jval: float | None = None) -> AlgebraElement:
    """T_k(j): T1(j)=j(i/2)tau1, T2(j)=j(i/2)tau2, T3(j)=(i/2)tau3."""
    if k not in (1, 2, 3):
        raise ValueError("generator index must be 1, 2 or 3")
    coeffs = [0.0, 0.0, 0.0]
    coeffs[k - 1] = 1.0
    return algebra_element(*coeffs, order=order, jval=jval)


def algebra_element(
    a1: Param, a2: Param, a3: Param, order: int = DEFAULT_ORDER,
    jval: float | None = None
) -> AlgebraElement:
    """General element sum_k a_k T_k(j), realized as the anti-hermitian
    matrix (i/2)(j a1 tau1 + j a2 tau2 + a3 tau3): grade-1 off-diagonal
    and grade-0 diagonal entries."""
    x1, x2, x3 = (np.asarray(a, dtype=float)[..., None, None] for a in (a1, a2, a3))
    fiber = 0.5j * (x1 * PAULI[0] + x2 * PAULI[1])
    m = JetMatrix2(jparam(order, jval) * fiber + 0.5j * x3 * PAULI[2])
    return AlgebraElement(a1, a2, a3, m)


def one_param(k: "int | np.ndarray", angle: Param, order: int = DEFAULT_ORDER,
              jval: float | None = None) -> JetMatrix2:
    """One-parameter subgroup element exp(angle * T_k(j)) = c 1 + i s tau_k,
    or a batch of them for arrays k and angle of one shape.

    For k=1,2, c and s are the series of cos(j*angle/2), sin(j*angle/2);
    k=3 is the diagonal phase subgroup, untouched by contraction, with
    c = cos(angle/2) and s = sin(angle/2). A numeric jval replaces the
    series by exact cos/sin values at j=jval.
    """
    k = np.asarray(k)
    if not np.isin(k, (1, 2, 3)).all():
        raise ValueError("subgroup index must be 1, 2 or 3")
    half = np.asarray(angle, dtype=float) / 2.0
    if jval is None:
        c, s = (Jet(np.where((k != 3)[..., None, None], series(half, order).coeffs,
                             Jet.const(closed(half), order).coeffs), order)
                for series, closed in ((jet_cos, np.cos), (jet_sin, np.sin)))
    else:
        x = np.where(k != 3, jval, 1.0) * half
        c, s = Jet.const(np.cos(x), order), Jet.const(np.sin(x), order)
    return JetMatrix2(c[..., None, None] * np.eye(2)
                      + (1j * s)[..., None, None] * np.stack(PAULI)[k - 1])


def exp_series(a1: Param, a2: Param, a3: Param, order: int = DEFAULT_ORDER,
               terms: int = EXP_SERIES_TERMS, jval: float | None = None) -> JetMatrix2:
    """Truncated matrix-exponential series of the general algebra element.

    This is the normative exponential: closed forms are cross-checked
    against it, never the other way around.
    """
    t = algebra_element(a1, a2, a3, order, jval=jval).matrix
    result = JetMatrix2.identity(order)
    power = JetMatrix2.identity(order)
    fact = 1.0
    for n in range(1, terms + 1):
        fact *= n
        power = power * t
        result = result + power * (1.0 / fact)
    return result


def exp_closed_nilpotent(a1: Param, a2: Param, a3: Param,
                         order: int = DEFAULT_ORDER) -> JetMatrix2:
    """Closed form of exp(T(iota)): diagonal phases e^{+-i a3/2} with
    grade-1 off-diagonal entries i*(conj(a)/a3)*sin(a3/2) and
    i*(a/a3)*sin(a3/2), a = a1 + i a2.

    Only grades 0 and 1 are meaningful; a3=0 is a removable singularity of
    this form (use the series exponential there).
    """
    a3 = np.asarray(a3, dtype=float)
    if (a3 == 0.0).any():
        raise ValueError("closed nilpotent form is singular at a3=0; use exp_series")
    j = Jet.variable(order)
    a = a1 + 1j * np.asarray(a2)
    s = np.sin(a3 / 2.0)
    return JetMatrix2([
        [Jet.const(np.exp(0.5j * a3), order), j * (1j * (np.conj(a) / a3) * s)],
        [j * (1j * (a / a3) * s), Jet.const(np.exp(-0.5j * a3), order)],
    ])


def exp_closed_su2(a1: float, a2: float, a3: float) -> np.ndarray:
    """Standard SU(2) closed exponential at j=1 (numeric cross-check):
    exp(i/2 * a.tau) = cos(|a|/2) 1 + i sin(|a|/2) (a.tau)/|a|."""
    a = np.array([a1, a2, a3])
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return np.eye(2, dtype=complex)
    atau = sum(a[i] * PAULI[i] for i in range(3))
    return math.cos(norm / 2) * np.eye(2) + 1j * math.sin(norm / 2) * atau / norm


def u1_element(beta: Param, order: int = DEFAULT_ORDER) -> JetMatrix2:
    """U(1) hypercharge element exp(beta*Y) = diag(e^{i beta/2}, e^{i beta/2})."""
    return JetMatrix2(Jet.const(np.exp(0.5j * np.asarray(beta))[..., None, None]
                                * np.eye(2), order))


def u1em_element(gamma: Param, order: int = DEFAULT_ORDER) -> JetMatrix2:
    """Electromagnetic subgroup element exp(gamma*Q) = diag(e^{i gamma}, 1),
    with charge Q = Y + T3."""
    phase = np.exp(1j * np.asarray(gamma))[..., None, None]
    return JetMatrix2(Jet.const(phase * np.diag([1.0, 0.0]) + np.diag([0.0, 1.0]), order))


@dataclass(frozen=True)
class MatterDoublet:
    """Point in the fibered matter space: ungraded components (phi1, phi2)
    and their graded image (phi1, j*phi2). Arrays of components hold one
    doublet per element."""

    phi1: "complex | np.ndarray"
    phi2: "complex | np.ndarray"
    order: int = DEFAULT_ORDER

    @property
    def graded(self) -> Jet:
        """The graded doublet on a trailing axis of 2."""
        return stack([Jet.const(self.phi1, self.order),
                      Jet.variable(self.order) * self.phi2])


def hermitian_form_jets(x: Jet, y: Jet) -> Jet:
    """Invariant form on graded doublets (trailing axis of 2); for graded
    inputs this equals conj(x1)y1 + j^2 conj(x2)y2 automatically."""
    return (x.conjugate() * y).sum(-1)


def random_factors(rng: np.random.Generator, shape: Tuple[int, ...] = (),
                   factors: int = 3) -> Tuple[np.ndarray, np.ndarray]:
    """Generator indices and angles, uniform in [-pi, pi], of the factors
    of random group elements, shaped (*shape, factors): bit for bit the
    numbers and PCG64 state of rng.integers(1, 4), rng.uniform(-pi, pi)
    per factor, from one block of words. An index is Lemire's (3x >> 32) + 1
    of a 32-bit half word x, low half first, redrawn only at x = 0; the high
    half waits in the state's has_uint32 and uinteger. An angle is -pi +
    2pi (w >> 11) 2**-53 of a whole word w. So from an empty buffer two
    factors take three words: index, angle, angle. A zero x (odds 2**-32)
    is left to numpy's scalar calls. Other bit generators raise TypeError."""
    bits = rng.bit_generator
    if type(bits) is not np.random.PCG64:
        raise TypeError(f"random_factors draws PCG64 words, not {type(bits).__name__}")
    count, start = math.prod(shape) * factors, bits.state
    x, words = _factor_words(bits, start, count)
    ks, angles = (3 * x >> 32) + 1, -math.pi + 2 * math.pi * ((words >> 11) * 2.0**-53)
    if not x.all():  # numpy redraws x = 0, shifting every later word
        zero, bits.state = int(np.argmin(x)), start
        _factor_words(bits, start, zero)
        ks[zero], angles[zero] = rng.integers(1, 4), rng.uniform(-math.pi, math.pi)
        ks[zero + 1:], angles[zero + 1:] = random_factors(rng, (), count - zero - 1)
    return ks.reshape(*shape, factors), angles.reshape(*shape, factors)


def _factor_words(bits: np.random.PCG64, state: dict,
                  count: int) -> Tuple[np.ndarray, np.ndarray]:
    """The 32-bit index draws x and angle words of `count` factors from
    `state` on: one random_raw block in rows of index, angle, angle after a
    row [waiting half << 32, 0, 0], or [..., 0, angle] if an index waits."""
    head = state["has_uint32"]
    raw = bits.random_raw(count + (count - head + 1) // 2)
    words = np.zeros((5 - head + raw.size) // 3 * 3, np.uint64)
    words[0], words[3 - head:3 - head + raw.size] = state["uinteger"] << 32, raw
    halves = words[::3].astype("<u8").view("<u4")  # low half, then high half
    last = 1 - head + count  # the last half drawn
    bits.state = dict(bits.state, has_uint32=1 - last % 2,
                      uinteger=int(halves[last | 1]))
    angles = words.reshape(-1, 3)[:, 1:].ravel()
    return halves[2 - head:last + 1].astype(np.int64), angles[2 - head:last + 1]


def group_product(ks: np.ndarray, angles: np.ndarray,
                  order: int = DEFAULT_ORDER,
                  jval: float | None = None) -> JetMatrix2:
    """Product of the one-parameter elements exp(angles[..., f] T_ks[..., f])
    over the last axis, f = 0, 1, ...; the leading axes are a batch."""
    u = one_param(ks[..., 0], angles[..., 0], order, jval=jval)
    for f in range(1, ks.shape[-1]):
        u = u * one_param(ks[..., f], angles[..., f], order, jval=jval)
    return u
