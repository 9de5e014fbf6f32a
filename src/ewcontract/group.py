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
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .jets import DEFAULT_ORDER, Jet, JetMatrix2, jparam, stack

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

#: generator matrices [a, i, k] over (T1, T2, T3, Y) at j = 1 on each matter
#: field: the doublet's (i/2)(tau_1, tau_2, tau_3, 1), and on the leptons
#: (e_l, nu_l, e_r) its T_a on (e_l, nu_l) and Y = i diag(-1/2, -1/2, -1)
DOUBLET_GENERATORS = 0.5j * np.stack(PAULI + (np.eye(2),))
LEPTON_GENERATORS = np.concatenate([
    np.pad(DOUBLET_GENERATORS[:3], ((0, 0), (0, 1), (0, 1))),
    [np.diag([-0.5j, -0.5j, -1j])]])
#: [T_a, T_b] = f[a, b, c] T_c, by trace with tr(T_c T_d) = -delta_cd / 2
_TRIPLE = np.einsum("aij,bjk,cki->abc", *(DOUBLET_GENERATORS,) * 3)
STRUCTURE_CONSTANTS = (-2.0 * (_TRIPLE - _TRIPLE.swapaxes(0, 1))).real

EXP_SERIES_TERMS = 20

#: a number, or an array of numbers for a batch of elements
Param = Union[float, np.ndarray]


@dataclass(frozen=True)
class AlgebraElement:
    """Element a1*T1(j) + a2*T2(j) + a3*T3(j) of su(2;j), as its matrix."""

    matrix: JetMatrix2


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
    return AlgebraElement(m)


def _series(x: "float | np.ndarray", order: int, first: int) -> np.ndarray:
    """Coefficients (..., order + 1, 1) in j of sum_n (-1)**(n // 2)
    (j x)**n / n! over n = first, first + 2, ..., truncated: the series of
    cos(j x) for first = 0 and of sin(j x) for first = 1, one per element
    of x."""
    x = np.asarray(x, dtype=float)
    c = np.zeros(x.shape + (order + 1, 1), dtype=complex)
    for n in range(first, order + 1, 2):
        c[..., n, 0] = (-1) ** (n // 2) * x**n / math.factorial(n)
    return c


def one_param(k: "int | np.ndarray", angle: Param, order: int = DEFAULT_ORDER,
              jval: float | None = None) -> JetMatrix2:
    """One-parameter subgroup element exp(angle * T_k(j)) = c 1 + i s tau_k,
    or a batch of them for arrays k and angle of one shape.

    For k=1,2, c and s are the truncated series (_series) of
    cos(j*angle/2) and sin(j*angle/2); k=3 is the diagonal phase subgroup,
    untouched by contraction, with c = cos(angle/2) and s = sin(angle/2).
    A numeric jval replaces the series by exact cos/sin values at j=jval.
    """
    k = np.asarray(k)
    if not np.isin(k, (1, 2, 3)).all():
        raise ValueError("subgroup index must be 1, 2 or 3")
    half = np.asarray(angle, dtype=float) / 2.0
    if jval is None:
        c, s = (Jet(np.where((k != 3)[..., None, None], _series(half, order, first),
                             Jet.const(closed(half), order).coeffs), order)
                for first, closed in ((0, np.cos), (1, np.sin)))
    else:
        x = np.where(k != 3, jval, 1.0) * half
        c, s = Jet.const(np.cos(x), order), Jet.const(np.sin(x), order)
    return JetMatrix2(c[..., None, None] * np.eye(2)
                      + (1j * s)[..., None, None] * np.stack(PAULI)[k - 1])


def exp_series(a1: Param, a2: Param, a3: Param, order: int = DEFAULT_ORDER,
               jval: float | None = None) -> JetMatrix2:
    """Truncated matrix-exponential series of the general algebra element.

    This is the normative exponential: closed forms are cross-checked
    against it, never the other way around.
    """
    t = algebra_element(a1, a2, a3, order, jval=jval).matrix
    result = JetMatrix2.identity(order)
    power = JetMatrix2.identity(order)
    fact = 1.0
    for n in range(1, EXP_SERIES_TERMS + 1):
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
    """Electromagnetic subgroup element exp(gamma*Q) = diag(1, e^{i gamma}),
    with charge Q = Y - T3: the subgroup that fixes the vacuum (R, 0)."""
    phase = np.exp(1j * np.asarray(gamma))[..., None, None]
    return JetMatrix2(Jet.const(np.diag([1.0, 0.0]) + phase * np.diag([0.0, 1.0]), order))


def graded_doublet(phi1: "complex | np.ndarray", phi2: "complex | np.ndarray",
                   order: int = DEFAULT_ORDER) -> Jet:
    """Graded image (phi1, j*phi2) of a point (phi1, phi2) of the fibered
    matter space, on a trailing axis of 2. Arrays of components hold one
    doublet per element."""
    return stack([Jet.const(phi1, order), Jet.variable(order) * phi2])


def random_factors(rng: np.random.Generator,
                   shape: Tuple[int, ...] = ()) -> Tuple[np.ndarray, np.ndarray]:
    """Generator indices in {1, 2, 3} and angles in [-pi, pi) of the three
    one-parameter factors of random group elements, shaped (*shape, 3): per
    factor two consecutive doubles u of one rng.random block give
    floor(3 u0) + 1 and numpy's uniform(-pi, pi) of u1. In C order, n
    elements are bit for bit n single-element calls and leave any bit
    generator in the same state, so a suite's numbers do not depend on its
    CONFIG_CHUNK."""
    u = rng.random((*shape, 3, 2))
    return (3 * u[..., 0]).astype(np.int64) + 1, -math.pi + 2 * math.pi * u[..., 1]


def group_product(ks: np.ndarray, angles: np.ndarray,
                  order: int = DEFAULT_ORDER,
                  jval: float | None = None) -> JetMatrix2:
    """Product of the one-parameter elements exp(angles[..., f] T_ks[..., f])
    over the last axis, f = 0, 1, ...; the leading axes are a batch."""
    u = one_param(ks[..., 0], angles[..., 0], order, jval=jval)
    for f in range(1, ks.shape[-1]):
        u = u * one_param(ks[..., f], angles[..., f], order, jval=jval)
    return u
