"""Ring laws and truncation behaviour of the jet arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewcontract.jets import (
    DEFAULT_ORDER,
    Jet,
    JetMatrix2,
    NonPositiveConstantTerm,
    ZeroConstantTerm,
    jet_cos,
    jet_sin,
)

TOL = 1e-10


def finite_complex(bound=3.0):
    reals = st.floats(
        min_value=-bound, max_value=bound, allow_nan=False, allow_infinity=False
    )
    return st.builds(complex, reals, reals)


def jets(order=DEFAULT_ORDER):
    return st.lists(
        finite_complex(), min_size=order + 1, max_size=order + 1
    ).map(lambda cs: Jet(cs, order))


def eps_jets(order=DEFAULT_ORDER, eps_order=2):
    """Jets with an eps axis; mixed with plain jets they exercise the
    zero-padding to the wider eps truncation."""
    size = (order + 1) * (eps_order + 1)
    return st.lists(finite_complex(), min_size=size, max_size=size).map(
        lambda cs: Jet(np.reshape(cs, (order + 1, eps_order + 1)), order,
                       eps_order))


@given(jets(), jets(), jets(), eps_jets())
def test_addition_associative_commutative(a, b, c, e):
    for b in (b, e):
        assert ((a + b) + c).allclose(a + (b + c), tol=TOL)
        assert (a + b).allclose(b + a, tol=TOL)


@given(jets(), jets(), jets(), eps_jets())
@settings(max_examples=60)
def test_multiplication_associative(a, b, c, e):
    for b in (b, e):
        assert ((a * b) * c).allclose(a * (b * c), tol=1e-8 * 30)


@given(jets(), jets(), eps_jets())
def test_multiplication_commutative(a, b, e):
    for b in (b, e):
        assert (a * b).allclose(b * a, tol=TOL)


@given(jets(), jets(), jets(), eps_jets())
def test_distributive(a, b, c, e):
    for b in (b, e):
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert lhs.allclose(rhs, tol=1e-8)


@given(jets(), eps_jets())
def test_additive_identity_and_inverse(a, e):
    for a in (a, e):
        assert (a + Jet.zero()).allclose(a)
        assert (a - a).allclose(Jet.zero())
        assert (-a + a).allclose(Jet.zero())


@given(jets(), eps_jets())
def test_multiplicative_identity(a, e):
    one = Jet.const(1.0)
    for a in (a, e):
        assert (a * one).allclose(a)


@given(jets(), eps_jets())
def test_conjugation_is_an_involution(a, e):
    for a in (a, e):
        assert a.conjugate().conjugate().allclose(a)


@given(jets(), jets(), eps_jets())
def test_conjugation_distributes_over_products(a, b, e):
    for b in (b, e):
        assert (a * b).conjugate().allclose(a.conjugate() * b.conjugate(),
                                            tol=1e-8)


def test_variable_is_nilpotent_beyond_order():
    j = Jet.variable(order=3)
    assert (j * j * j * j).allclose(Jet.zero(order=3))
    cube = j * j * j
    assert cube.grade(3) == pytest.approx(1.0)


@given(jets(), eps_jets())
def test_inverse_of_invertible_jet(a, e):
    if abs(a.grade(0)) < 0.1:
        a = a + 1.0
    assert (a * a.inv()).allclose(Jet.const(1.0), tol=1e-6)
    if abs(e.grade(0)) < 0.1:
        e = e + 1.0
    inv = e.inv()
    # the round-off of a truncated product is bounded by the size of its
    # terms, which for an inverse of depth order + eps_order can be large
    scale = np.abs(e.coeffs).max() * np.abs(inv.coeffs).max()
    assert (e * inv).allclose(Jet.const(1.0), tol=1e-13 * scale)


def test_inverse_requires_nonzero_constant_term():
    j = Jet.variable()
    with pytest.raises(ZeroConstantTerm):
        j.inv()


def test_inv_sqrt_requires_positive_constant_term():
    bad = Jet.const(-2.0)
    with pytest.raises(NonPositiveConstantTerm):
        bad.inv_sqrt()


@given(st.floats(min_value=0.2, max_value=4.0))
def test_inv_sqrt_squares_back(c0):
    a = Jet.const(c0) + Jet.variable() * 0.3
    s = a.inv_sqrt()
    assert (a * s * s).allclose(Jet.const(1.0), tol=1e-9)


def test_trig_jets_satisfy_pythagoras():
    c, s = jet_cos(0.7), jet_sin(0.7)
    assert (c * c + s * s).allclose(Jet.const(1.0), tol=1e-12)


def test_incompatible_orders_rejected():
    with pytest.raises(ValueError):
        Jet.variable(order=3) + Jet.variable(order=4)
    # a jet without eps terms is zero-padded to the other operand's eps
    # truncation; two different nonzero eps truncations raise, since the
    # narrower jet's missing eps coefficients are unknown, not zero
    e1 = Jet(np.ones((DEFAULT_ORDER + 1, 2)), DEFAULT_ORDER, 1)
    e2 = Jet(np.ones((DEFAULT_ORDER + 1, 3)), DEFAULT_ORDER, 2)
    assert (Jet.variable() * e2).eps_order == 2
    for op in (Jet.__add__, Jet.__sub__, Jet.__mul__, Jet.allclose,
               Jet.max_abs_diff):
        with pytest.raises(ValueError, match="eps truncation"):
            op(e1, e2)


# -- 2x2 jet matrices -------------------------------------------------


def _random_matrix(rng, order=DEFAULT_ORDER):
    return JetMatrix2(
        [
            [
                Jet(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1),
                    order)
                for _ in range(2)
            ]
            for _ in range(2)
        ]
    )


def test_matrix_product_against_numpy_grade0():
    rng = np.random.default_rng(1)
    m1, m2 = _random_matrix(rng), _random_matrix(rng)
    prod = m1 * m2
    a = np.array([[m1[r, c].grade(0) for c in range(2)] for r in range(2)])
    b = np.array([[m2[r, c].grade(0) for c in range(2)] for r in range(2)])
    expected = a @ b
    got = np.array([[prod[r, c].grade(0) for c in range(2)] for r in range(2)])
    assert np.allclose(got, expected)


def test_matrix_determinant_multiplicative():
    rng = np.random.default_rng(2)
    m1, m2 = _random_matrix(rng), _random_matrix(rng)
    assert (m1 * m2).det().allclose(m1.det() * m2.det(), tol=1e-8)


def test_commutator_antisymmetry():
    rng = np.random.default_rng(3)
    m1, m2 = _random_matrix(rng), _random_matrix(rng)
    lhs = m1.commutator(m2)
    rhs = m2.commutator(m1)
    assert lhs.allclose(-rhs, tol=1e-9)


def test_dagger_reverses_products():
    rng = np.random.default_rng(4)
    m1, m2 = _random_matrix(rng), _random_matrix(rng)
    assert (m1 * m2).dagger().allclose(m2.dagger() * m1.dagger(), tol=1e-9)


def test_trace_cyclic():
    rng = np.random.default_rng(5)
    m1, m2 = _random_matrix(rng), _random_matrix(rng)
    assert (m1 * m2).trace().allclose((m2 * m1).trace(), tol=1e-8)
