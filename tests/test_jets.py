"""Ring laws and truncation behaviour of the jet arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ewcontract.jets import (
    DEFAULT_ORDER,
    Jet,
    JetMatrix2,
    NonPositiveConstantTerm,
    ZeroConstantTerm,
    jet_cos,
    jet_sin,
    stack,
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


def batched_jets(shape=(2, 3), order=DEFAULT_ORDER, eps_order=2):
    """Jets with batch axes, for the laws of the batch-axis operations."""
    elements = st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                  allow_infinity=False)
    return arrays(complex, shape + (order + 1, eps_order + 1),
                  elements=elements).map(lambda c: Jet(c, order, eps_order))


#: batch-axis keys of a (2, 3) batch: ints, slices, ..., None, index arrays
BATCH_KEYS = [0, (1, 2), (..., 1), (slice(None), None, 2), (None, ..., 0),
              (..., np.array([2, 0, 2])), (np.array([1, 0]), slice(1, None))]


@given(batched_jets(), batched_jets(), jets())
def test_indexing_commutes_with_ring_operations(a, b, plain):
    for key in BATCH_KEYS:
        want = np.asarray(a.coeffs[..., 0, 0])[key]
        assert a[key].coeffs[..., 0, 0].shape == want.shape
        assert (a + b)[key].allclose(a[key] + b[key], tol=TOL)
        assert (a * b)[key].allclose(a[key] * b[key], tol=TOL)
        assert (a * plain)[key].allclose(a[key] * plain, tol=TOL)
        assert a.conjugate()[key].allclose(a[key].conjugate())


@given(batched_jets(), batched_jets(), jets())
def test_summing_commutes_with_ring_operations(a, b, plain):
    for axis in (0, -1, (0, 1), (-2, -1)):
        assert (a + b).sum(axis).allclose(a.sum(axis) + b.sum(axis), tol=TOL)
        assert (a * plain).sum(axis).allclose(a.sum(axis) * plain, tol=1e-8)
        assert a.conjugate().sum(axis).allclose(a.sum(axis).conjugate())
    assert np.array_equal(a.sum((0, 1)).coeffs, a.coeffs.sum(axis=(0, 1)))


@given(batched_jets(), batched_jets())
def test_swapping_axes_commutes_with_ring_operations(a, b):
    swapped = a.swapaxes(0, 1)
    assert swapped.batch_shape == (3, 2)
    assert np.array_equal(swapped.coeffs, np.swapaxes(a.coeffs, 0, 1))
    assert (a * b).swapaxes(-1, -2).allclose(swapped * b.swapaxes(0, 1), tol=TOL)
    assert (a + b).swapaxes(0, 1).allclose(swapped + b.swapaxes(-2, -1), tol=TOL)
    assert a.conjugate().swapaxes(0, 1).allclose(swapped.conjugate())
    assert swapped.swapaxes(1, 0).allclose(a, tol=0.0)


@given(batched_jets(), jets(), eps_jets())
def test_stack_zero_pads_eps_as_arithmetic_does(a, plain, e):
    stacked = stack([plain, e, 2.0])
    assert stacked.batch_shape == (3,) and stacked.eps_order == 2
    assert stacked[0].allclose(plain + 0.0 * e, tol=0.0)
    assert stacked[1].allclose(e, tol=0.0)
    assert stacked[2].allclose(Jet.const(2.0), tol=0.0)
    # batch shapes broadcast; the new axis goes where `axis` says
    mixed = stack([a, plain], axis=0)
    assert mixed.batch_shape == (2, 2, 3)
    assert mixed[1].allclose(plain + 0.0 * a, tol=0.0)
    assert stack([a, a], axis=-2)[..., 1, :].allclose(a, tol=0.0)


def test_batch_operations_never_touch_coefficient_axes():
    a = Jet(np.ones((2, 3, DEFAULT_ORDER + 1, 1)), DEFAULT_ORDER)
    for key in ((0, 0, 0), (..., 0, 0, 0)):
        with pytest.raises(IndexError):
            a[key]
    with pytest.raises(IndexError):
        Jet.const(1.0)[0]
    for axis in (2, -3):
        with pytest.raises(IndexError):
            a.sum(axis)
        with pytest.raises(IndexError):
            a.swapaxes(0, axis)
    with pytest.raises(ValueError, match="truncation orders"):
        stack([Jet.variable(order=3), Jet.variable(order=4)])
    e1 = Jet(np.ones((DEFAULT_ORDER + 1, 2)), DEFAULT_ORDER, 1)
    e2 = Jet(np.ones((DEFAULT_ORDER + 1, 3)), DEFAULT_ORDER, 2)
    with pytest.raises(ValueError, match="eps truncation"):
        stack([e1, e2])


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


def test_jet_times_matrix_scales_every_entry_in_either_order():
    rng = np.random.default_rng(6)
    j = Jet.variable()
    for m in (JetMatrix2.identity(), _random_matrix(rng)):
        left, right = j * m, m * j
        assert isinstance(left, JetMatrix2)
        assert left.allclose(right, tol=0.0)
    with pytest.raises(TypeError):
        j * object()
    with pytest.raises(TypeError):
        j / object()


# -- batch axes ---------------------------------------------------------


def _batched(rng, batch, order=DEFAULT_ORDER, eps_order=0, offset=0.0):
    shape = batch + (order + 1, eps_order + 1)
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    coeffs[..., 0, 0] = offset + rng.uniform(0.5, 2.0, size=batch)
    return Jet(coeffs, order, eps_order)


def _naive_product(a, b):
    """Reference truncated product of two unbatched coefficient arrays, one
    term at a time."""
    rows, cols = a.shape[0], max(a.shape[1], b.shape[1])
    out = np.zeros((rows, cols), dtype=complex)
    for k in range(rows):
        for q in range(a.shape[1]):
            for l in range(rows - k):
                for r in range(min(b.shape[1], cols - q)):
                    out[k + l, q + r] += a[k, q] * b[l, r]
    return out


def _sparse(jet, pattern):
    """A copy of a jet with one of the zero patterns of sampled fields:
    "eps" keeps eps column 1 only (a sample times eps), "fiber" zeroes
    grade 0 (a fiber field), "some" zeroes every other batch element (a
    jet without batch axes stays dense), "zero" every coefficient;
    "dense" keeps every coefficient."""
    c = np.array(jet.coeffs)
    if pattern == "eps":
        c[..., :, 0] = 0.0
        c[..., :, 2:] = 0.0
    elif pattern == "fiber":
        c[..., 0, :] = 0.0
    elif pattern == "some" and jet.batch_shape:
        c[::2] = 0.0
    elif pattern == "zero":
        c[...] = 0.0
    return Jet(c, jet.order, jet.eps_order)


#: zero patterns of the two operands of a product
ZERO_PATTERNS = [("dense", "dense"), ("eps", "eps"), ("eps", "dense"),
                 ("eps", "fiber"), ("fiber", "eps"), ("some", "eps"),
                 ("some", "fiber"), ("zero", "dense"), ("dense", "zero")]


@pytest.mark.parametrize("a_eps,b_eps,batch", [
    (0, 0, ()), (2, 2, ()), (0, 3, ()), (3, 0, ()), (6, 6, (16,)),
    (2, 0, (4,)),
])
def test_product_matches_naive_truncated_convolution(a_eps, b_eps, batch):
    """Dense and sparse operands: a product skips the pairs with a factor
    that is zero in every batch element, so a term whose pairs all have a
    zero factor is exactly 0, and the others match the naive sum."""
    rng = np.random.default_rng(10)
    dense_a = _batched(rng, batch, order=8, eps_order=a_eps)
    dense_b = _batched(rng, (), order=8, eps_order=b_eps)
    for a_zeros, b_zeros in ZERO_PATTERNS:
        a, b = _sparse(dense_a, a_zeros), _sparse(dense_b, b_zeros)
        got = (a * b).coeffs.reshape((-1,) + (a * b).coeffs.shape[-2:])
        elements = a.coeffs.reshape((-1,) + a.coeffs.shape[-2:])
        for i, element in enumerate(elements):
            want = _naive_product(element, b.coeffs)
            live = _naive_product(element != 0, b.coeffs != 0) != 0
            assert np.all(got[i][~live] == 0.0), (a_zeros, b_zeros)
            assert (np.abs(got[i] - want).max()
                    <= 1e-14 * np.abs(want).max()), (a_zeros, b_zeros)


def test_nan_spoils_every_term_where_it_meets_a_nonzero_coefficient():
    """Skipping pairs with a factor that is 0 in every batch element never
    hides a NaN sample: every term that pairs it with a nonzero
    coefficient is non-finite, in its own batch element only."""
    rng = np.random.default_rng(15)
    b = _sparse(_batched(rng, (), order=4, eps_order=2), "eps")
    for position in ((1, 0), (0, 1), (3, 1)):
        coeffs = np.array(_sparse(_batched(rng, (3,), order=4, eps_order=2),
                                  "fiber").coeffs)
        coeffs[1][position] = np.nan
        got = (Jet(coeffs, 4, 2) * b).coeffs
        nan = np.zeros(coeffs.shape[-2:])
        nan[position] = 1.0
        meets = _naive_product(nan, b.coeffs != 0) != 0
        assert meets.any()
        assert not np.isfinite(got[1][meets]).any()
        assert np.isfinite(got[[0, 2]]).all()


def _element(jet, i):
    return Jet(jet.coeffs[i], jet.order, jet.eps_order)


def _assert_stacked(batched, elements):
    """A batched result equals the stack of per-element results to 1e-15
    of their scale."""
    stacked = np.stack([e.coeffs for e in elements])
    assert batched.coeffs.shape == stacked.shape
    scale = max(np.abs(stacked).max(), 1.0)
    assert np.abs(batched.coeffs - stacked).max() <= 1e-15 * scale


@pytest.mark.parametrize("eps_order", [0, 2])
def test_batched_ring_operations_match_each_element(eps_order):
    rng = np.random.default_rng(11)
    a = _batched(rng, (6,), eps_order=eps_order, offset=1.0)
    b = _batched(rng, (6,), eps_order=eps_order, offset=1.0)
    pairs = [(_element(a, i), _element(b, i)) for i in range(6)]
    _assert_stacked(a + b, [x + y for x, y in pairs])
    _assert_stacked(a - b, [x - y for x, y in pairs])
    _assert_stacked(a * b, [x * y for x, y in pairs])
    _assert_stacked(a.inv(), [x.inv() for x, _ in pairs])
    _assert_stacked(a.conjugate(), [x.conjugate() for x, _ in pairs])
    real = Jet(a.coeffs.real + 0j, a.order, eps_order)
    _assert_stacked(real.inv_sqrt(),
                    [_element(real, i).inv_sqrt() for i in range(6)])
    assert a.batch_shape == (6,)
    assert np.allclose(a.grade(1), [x.grade(1) for x, _ in pairs])
    _assert_stacked(Jet(a.mean().coeffs[None], a.order, eps_order),
                    [sum((x for x, _ in pairs), Jet.zero()) * (1.0 / 6)])


def test_batched_jet_broadcasts_against_unbatched():
    rng = np.random.default_rng(12)
    a = _batched(rng, (3, 4), eps_order=2)
    e = _batched(rng, (), eps_order=2)
    plain = _batched(rng, ())
    for other in (e, plain):
        for op in (Jet.__add__, Jet.__sub__, Jet.__mul__):
            got = op(a, other)
            assert got.batch_shape == (3, 4)
            for i in range(3):
                for k in range(4):
                    element = Jet(a.coeffs[i, k], a.order, 2)
                    assert got.coeffs[i, k] == pytest.approx(
                        op(element, other).coeffs, abs=1e-14)
    assert (plain * a).allclose(a * plain)


def test_inverses_reject_one_invalid_batch_element():
    rng = np.random.default_rng(13)
    a = _batched(rng, (5,), eps_order=2)
    coeffs = np.array(a.coeffs)
    coeffs[3, 0, 0] = 0.0
    with pytest.raises(ZeroConstantTerm):
        Jet(coeffs, a.order, 2).inv()
    coeffs[3, 0, 0] = -1.0
    with pytest.raises(NonPositiveConstantTerm):
        Jet(coeffs, a.order, 2).inv_sqrt()
    a.inv()
    Jet(a.coeffs.real + 0j, a.order, 2).inv_sqrt()


def test_numpy_operands_scale_each_batch_element():
    a = _batched(np.random.default_rng(14), (3,), eps_order=2)
    values = np.array([0.5, -2.0, 3.0j])
    for product in (values * a, a * values):
        assert isinstance(product, Jet)
        for i, v in enumerate(values):
            assert np.array_equal(product.coeffs[i], a.coeffs[i] * v)
    for scalar in (np.float64(1.5), np.complex128(0.5 - 1j)):
        product = scalar * a
        assert isinstance(product, Jet)
        assert np.array_equal(product.coeffs, (a * complex(scalar)).coeffs)
    one = Jet.const(1.0)
    assert isinstance(np.float64(2.0) * one, Jet)
    assert isinstance(np.float64(2.0) - one, Jet)
    assert (values + one).grade(0) == pytest.approx(values + 1.0)
