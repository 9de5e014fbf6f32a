"""Ring laws and truncation behaviour of the jet arithmetic."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ewcontract import cli
from ewcontract import jets as jets_module
from ewcontract.fields import Couplings
from ewcontract.jets import (
    DEFAULT_ORDER,
    EQ_TOL,
    Jet,
    JetMatrix2,
    CONTRACT_PAIRS,
    NonPositiveConstantTerm,
    ZeroConstantTerm,
    contract,
    jparam,
    stack,
)
from ewcontract.suites import RunConfig, run_suites

TOL = 1e-10


def finite_complex(bound=3.0):
    reals = st.floats(
        min_value=-bound, max_value=bound, allow_nan=False, allow_infinity=False
    )
    return st.builds(complex, reals, reals)


def _coefficients(shape):
    """One array of coefficients, each drawn from finite_complex(), or its
    real part: real blocks stay real, so the laws also cover real jets
    and their mixes with complex ones."""
    drawn = arrays(complex, shape, elements=finite_complex(), fill=st.nothing())
    return st.one_of(drawn, drawn.map(np.real))


def jets(order=DEFAULT_ORDER):
    return _coefficients(order + 1).map(lambda cs: Jet(cs, order))


def eps_jets(order=DEFAULT_ORDER, eps_order=2):
    """Jets with an eps axis; mixed with plain jets they exercise the
    zero-padding to the wider eps truncation."""
    return _coefficients((order + 1, eps_order + 1)).map(
        lambda cs: Jet(cs, order, eps_order))


@given(jets(), jets(), jets(), eps_jets())
def test_addition_associative_commutative(a, b, c, e):
    for b in (b, e):
        assert ((a + b) + c).max_abs_diff(a + (b + c)) <= TOL
        assert (a + b).max_abs_diff(b + a) <= TOL


@given(jets(), jets(), jets(), eps_jets())
@settings(max_examples=60)
def test_multiplication_associative(a, b, c, e):
    for b in (b, e):
        assert ((a * b) * c).max_abs_diff(a * (b * c)) <= 1e-8 * 30


@given(jets(), jets(), eps_jets())
def test_multiplication_commutative(a, b, e):
    for b in (b, e):
        assert (a * b).max_abs_diff(b * a) <= TOL


@given(jets(), jets(), jets(), eps_jets())
def test_distributive(a, b, c, e):
    for b in (b, e):
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert lhs.max_abs_diff(rhs) <= 1e-8


@given(jets(), eps_jets())
def test_additive_identity_and_inverse(a, e):
    for a in (a, e):
        assert (a + Jet.zero()).max_abs_diff(a) <= EQ_TOL
        assert (a - a).max_abs_diff(Jet.zero()) <= EQ_TOL
        assert (-a + a).max_abs_diff(Jet.zero()) <= EQ_TOL


@given(jets(), eps_jets())
def test_multiplicative_identity(a, e):
    one = Jet.const(1.0)
    for a in (a, e):
        assert (a * one).max_abs_diff(a) <= EQ_TOL


@given(jets(), eps_jets())
def test_conjugation_is_an_involution(a, e):
    for a in (a, e):
        assert a.conjugate().conjugate().max_abs_diff(a) <= EQ_TOL


@given(jets(), jets(), eps_jets())
def test_conjugation_distributes_over_products(a, b, e):
    for b in (b, e):
        assert (a * b).conjugate().max_abs_diff(
            a.conjugate() * b.conjugate()) <= 1e-8


def batched_jets(shape=(2, 3), order=DEFAULT_ORDER, eps_order=2):
    """Jets with batch axes, for the laws of the batch-axis operations."""
    elements = st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                  allow_infinity=False)
    drawn = arrays(complex, shape + (order + 1, eps_order + 1), elements=elements)
    return st.one_of(drawn, drawn.map(np.real)).map(lambda c: Jet(c, order, eps_order))


#: batch-axis keys of a (2, 3) batch: ints, slices, ..., None, index arrays
BATCH_KEYS = [0, (1, 2), (..., 1), (slice(None), None, 2), (None, ..., 0),
              (..., np.array([2, 0, 2])), (np.array([1, 0]), slice(1, None))]


@given(batched_jets(), batched_jets(), jets())
def test_indexing_commutes_with_ring_operations(a, b, plain):
    for key in BATCH_KEYS:
        want = np.asarray(a.coeffs[..., 0, 0])[key]
        assert a[key].coeffs[..., 0, 0].shape == want.shape
        assert (a + b)[key].max_abs_diff(a[key] + b[key]) <= TOL
        assert (a * b)[key].max_abs_diff(a[key] * b[key]) <= TOL
        assert (a * plain)[key].max_abs_diff(a[key] * plain) <= TOL
        assert a.conjugate()[key].max_abs_diff(a[key].conjugate()) <= EQ_TOL


@given(batched_jets(), batched_jets(), jets())
def test_summing_commutes_with_ring_operations(a, b, plain):
    for axis in (0, -1, (0, 1), (-2, -1)):
        assert (a + b).sum(axis).max_abs_diff(a.sum(axis) + b.sum(axis)) <= TOL
        assert (a * plain).sum(axis).max_abs_diff(a.sum(axis) * plain) <= 1e-8
        assert a.conjugate().sum(axis).max_abs_diff(a.sum(axis).conjugate()) <= EQ_TOL
    assert np.array_equal(a.sum((0, 1)).coeffs, a.coeffs.sum(axis=(0, 1)))


@given(batched_jets(), batched_jets())
def test_swapping_axes_commutes_with_ring_operations(a, b):
    swapped = a.swapaxes(0, 1)
    assert swapped.batch_shape == (3, 2)
    assert np.array_equal(swapped.coeffs, np.swapaxes(a.coeffs, 0, 1))
    assert (a * b).swapaxes(-1, -2).max_abs_diff(swapped * b.swapaxes(0, 1)) <= TOL
    assert (a + b).swapaxes(0, 1).max_abs_diff(swapped + b.swapaxes(-2, -1)) <= TOL
    assert a.conjugate().swapaxes(0, 1).max_abs_diff(swapped.conjugate()) <= EQ_TOL
    assert swapped.swapaxes(1, 0).max_abs_diff(a) <= 0.0


def test_stack_equals_a_broadcasting_reference_bit_for_bit():
    rng = np.random.default_rng(4)
    size = (2, 3, DEFAULT_ORDER + 1, 1)
    a, b = (Jet(rng.normal(size=size) + 1j * rng.normal(size=size), DEFAULT_ORDER)
            for _ in range(2))
    for axis in (0, -1, -2):
        stacked = stack([a, b, a], axis)
        expected = np.stack([a.coeffs, b.coeffs, a.coeffs],
                            axis=axis if axis >= 0 else axis - 2)
        assert stacked.coeffs.shape == expected.shape, axis
        assert stacked.coeffs.tobytes() == expected.tobytes(), axis
        assert not stacked.coeffs.flags.writeable
    for axis in (3, -4):
        with pytest.raises(IndexError):
            stack([a, b], axis)


def test_grade_outside_the_truncation_raises():
    """A negative grade is no coefficient: it must not read the highest
    stored row of the block, whose shape follows the values it reached."""
    for jet in (Jet([1, 2, 3], 4), Jet.variable(4), Jet(np.ones((2, 2, 1)), 4)):
        for n in (-1, -2, 5):
            with pytest.raises(IndexError):
                jet.grade(n)
        grades = np.stack([jet.grade(n) for n in range(5)], axis=-1)
        assert np.array_equal(grades, jet.coeffs[..., 0])


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
    assert (j * j * j * j).max_abs_diff(Jet.zero(order=3)) <= EQ_TOL
    cube = j * j * j
    assert cube.grade(3) == pytest.approx(1.0)


@given(jets(), eps_jets())
def test_inverse_of_invertible_jet(a, e):
    if abs(a.grade(0)) < 0.1:
        a = a + 1.0
    assert (a * a.inv()).max_abs_diff(Jet.const(1.0)) <= 1e-6
    if abs(e.grade(0)) < 0.1:
        e = e + 1.0
    inv = e.inv()
    # the round-off of a truncated product is bounded by the size of its
    # terms, which for an inverse of depth order + eps_order can be large
    scale = np.abs(e.coeffs).max() * np.abs(inv.coeffs).max()
    assert (e * inv).max_abs_diff(Jet.const(1.0)) <= 1e-13 * scale


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
    assert (a * s * s).max_abs_diff(Jet.const(1.0)) <= 1e-9


def test_incompatible_orders_rejected():
    with pytest.raises(ValueError):
        Jet.variable(order=3) + Jet.variable(order=4)
    # a jet without eps terms is zero-padded to the other operand's eps
    # truncation; two different nonzero eps truncations raise, since the
    # narrower jet's missing eps coefficients are unknown, not zero
    e1 = Jet(np.ones((DEFAULT_ORDER + 1, 2)), DEFAULT_ORDER, 1)
    e2 = Jet(np.ones((DEFAULT_ORDER + 1, 3)), DEFAULT_ORDER, 2)
    assert (Jet.variable() * e2).eps_order == 2
    for op in (Jet.__add__, Jet.__sub__, Jet.__mul__, Jet.max_abs_diff):
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
    assert (m1 * m2).det().max_abs_diff(m1.det() * m2.det()) <= 1e-8


def test_commutator_antisymmetry():
    rng = np.random.default_rng(3)
    m1, m2 = _random_matrix(rng), _random_matrix(rng)
    lhs = m1.commutator(m2)
    rhs = m2.commutator(m1)
    assert lhs.jet.max_abs_diff((-rhs).jet) <= 1e-9


def test_dagger_reverses_products():
    rng = np.random.default_rng(4)
    m1, m2 = _random_matrix(rng), _random_matrix(rng)
    assert (m1 * m2).dagger().jet.max_abs_diff(
        (m2.dagger() * m1.dagger()).jet) <= 1e-9


def test_trace_cyclic():
    rng = np.random.default_rng(5)
    m1, m2 = _random_matrix(rng), _random_matrix(rng)
    assert (m1 * m2).trace().max_abs_diff((m2 * m1).trace()) <= 1e-8


def test_jet_times_matrix_scales_every_entry_in_either_order():
    rng = np.random.default_rng(6)
    j = Jet.variable()
    for m in (JetMatrix2.identity(), _random_matrix(rng)):
        left, right = j * m, m * j
        assert isinstance(left, JetMatrix2)
        assert left.jet.max_abs_diff(right.jet) <= 0.0
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


def test_a_zero_operand_makes_an_exact_zero_product_without_a_plan():
    """An operand that is 0 in every batch element gives exact zeros with
    the broadcast batch shape and eps width, and looks up no index plan."""
    rng = np.random.default_rng(16)
    zero = _sparse(_batched(rng, (3, 1), order=4, eps_order=2), "zero")
    dense = _batched(rng, (4,), order=4)
    before = jets_module._plan.cache_info()
    for product in (zero * dense, dense * zero):
        assert product.coeffs.shape == (3, 4, 5, 3)
        assert not product.coeffs.any()
        assert not np.signbit(product.coeffs.view(float)).any()
    assert jets_module._plan.cache_info() == before


def _oracle_terms(block_a, block_b, rows, cols, support_a, support_b):
    """Brute-force plan of blocks of shapes block_a, block_b at rows j rows
    and cols eps columns: per term (n, p), in term order, its coefficient
    pairs (i, k) inside the supports, by left index i."""
    (ra, ca), (rb, cb) = block_a, block_b
    terms = []
    for n in range(rows):
        for p in range(cols):
            pairs = [(k * ca + q, (n - k) * cb + (p - q))
                     for k in range(min(n, ra - 1) + 1)
                     for q in range(min(p, ca - 1) + 1)
                     if n - k < rb and p - q < cb]
            pairs = [(i, k) for i, k in pairs if support_a[i] and support_b[k]]
            if pairs:
                terms.append(((n, p), pairs))
    return terms


def _planned_terms(plan):
    """A plan as a list of ((n, p), pairs), in the order it sums them."""
    left, right, starts, written, (rows, cols) = plan
    for index in (left, right, starts):
        assert not index.flags.writeable
    if written is None:
        written = np.arange(rows * cols)
    elif isinstance(written, slice):
        written = np.arange(written.start, written.stop)
    else:
        assert not written.flags.writeable
    ends = list(starts[1:]) + [len(left)]
    return [(divmod(int(t), cols), list(zip(left[s:e].tolist(), right[s:e].tolist())))
            for t, s, e in zip(written, starts, ends)]


#: (block_a, block_b, rows, cols): full blocks, and blocks smaller than
#: the truncation, as a sample times eps or a constant has
PLAN_SHAPES = [((5, 1), (5, 1), 5, 1), ((5, 1), (5, 3), 5, 3),
               ((5, 2), (5, 2), 5, 2), ((5, 3), (5, 3), 5, 3),
               ((5, 4), (5, 4), 5, 4), ((9, 1), (9, 7), 9, 7),
               ((9, 7), (9, 7), 9, 7), ((2, 2), (2, 2), 9, 7),
               ((2, 2), (9, 7), 9, 7), ((1, 2), (3, 1), 5, 3),
               ((3, 3), (4, 2), 5, 3), ((1, 1), (2, 2), 5, 3)]


def _plan_id(shapes):
    """rows-ca-cb for blocks of full height, as the dense plans were named."""
    (ra, ca), (rb, cb), rows, cols = shapes
    if ra == rb == rows:
        return f"{rows}-{ca}-{cb}"
    return f"{ra}x{ca}-{rb}x{cb}-{rows}-{cols}"


@pytest.mark.parametrize("block_a,block_b,rows,cols", PLAN_SHAPES,
                         ids=[_plan_id(shapes) for shapes in PLAN_SHAPES])
def test_plan_matches_the_brute_force_enumeration(block_a, block_b, rows, cols):
    """Every pair of a plan, in the brute-force order within each term, and
    a result block that is the smallest holding every written term."""
    rng = np.random.default_rng(sum(block_a) * 100 + sum(block_b) * 10 + cols)
    for density in (0.2, 0.5, 1.0):
        support_a = (rng.random(block_a) < density).astype(np.uint8).tobytes()
        support_b = (rng.random(block_b) < density).astype(np.uint8).tobytes()
        want = _oracle_terms(block_a, block_b, rows, cols, support_a, support_b)
        plan = jets_module._plan(block_a, block_b, rows, cols,
                                 support_a, support_b)
        assert (_planned_terms(plan) if plan else []) == want
        if plan:
            assert plan[-1] == (max(n for (n, _), _ in want) + 1,
                                max(p for (_, p), _ in want) + 1)


def test_plan_equals_the_nested_loop_reference_on_random_shapes():
    """At random truncations up to (9, 7), random block shapes inside them
    and random supports, the plan's pair indices, term starts, written
    terms and block shape equal, exactly, those of the nested loops over
    the dense product in its order (_oracle_terms)."""
    rng = np.random.default_rng(46)
    for _ in range(300):
        rows, cols = int(rng.integers(1, 10)), int(rng.integers(1, 8))
        block_a, block_b = ((int(rng.integers(1, rows + 1)),
                             int(rng.integers(1, cols + 1))) for _ in range(2))
        density = rng.choice([0.2, 0.5, 1.0])
        support_a = (rng.random(block_a) < density).astype(np.uint8).tobytes()
        support_b = (rng.random(block_b) < density).astype(np.uint8).tobytes()
        want = _oracle_terms(block_a, block_b, rows, cols, support_a, support_b)
        plan = jets_module._plan(block_a, block_b, rows, cols,
                                 support_a, support_b)
        if not want:
            assert plan is None
            continue
        left, right, starts, written, shape = plan
        assert shape == (max(n for (n, _), _ in want) + 1,
                         max(p for (_, p), _ in want) + 1)
        if written is None:
            written = range(shape[0] * shape[1])
        elif isinstance(written, slice):
            written = range(written.start, written.stop)
        pairs = [pair for _, term_pairs in want for pair in term_pairs]
        assert left.tolist() == [i for i, _ in pairs]
        assert right.tolist() == [k for _, k in pairs]
        assert starts.tolist() == np.cumsum([0] + [len(t) for _, t in want[:-1]]).tolist()
        assert list(written) == [n * shape[1] + p for (n, p), _ in want]


def test_supports_that_meet_in_no_kept_term_give_an_empty_plan():
    """j**3 * j**3 at order 4: both operands are nonzero, every pair lands
    beyond the truncation, and the product is an exact 0."""
    cube = Jet([0, 0, 0, 1], 4)
    assert cube.block.shape == (4, 1)
    support = jets_module._support(cube.block)
    assert jets_module._plan((4, 1), (4, 1), 5, 1, support, support) is None
    assert _oracle_terms((4, 1), (4, 1), 5, 1, support, support) == []
    assert not (cube * cube).coeffs.any()


def test_one_plan_serves_every_batch_size():
    """A product at batch 1 and at batch 10,000, with the same shape and
    supports, builds one plan, and each batch element equals its own
    unbatched product bit for bit."""
    rng = np.random.default_rng(24)
    a = _batched(rng, (10000,), order=4, eps_order=2)
    b = _batched(rng, (10000,), order=4, eps_order=2)
    jets_module._plan.cache_clear()
    small = a[:1] * b[:1]
    large = a * b
    assert jets_module._plan.cache_info().misses == 1
    assert small.coeffs.tobytes() == large.coeffs[:1].tobytes()
    assert (a[7] * b[7]).coeffs.tobytes() == large.coeffs[7].tobytes()


def test_repeated_commands_build_no_new_plan(tmp_path):
    """The plan cache holds every plan of a default verify and of an
    expand at order 8: running either again misses no plan."""
    config = RunConfig(Couplings(**cli.DEFAULT_COUPLINGS))
    expand = ["expand", "--n", "6", "--order", "8",
              "--out", str(tmp_path / "expand.json")]
    for command in (lambda: run_suites(config), lambda: cli.main(expand)):
        with contextlib.redirect_stdout(io.StringIO()):
            command()
            misses = jets_module._plan.cache_info().misses
            command()
        assert jets_module._plan.cache_info().misses == misses


def test_inverses_of_constant_jets_make_no_product(monkeypatch):
    """The binomial series of a constant jet is its constant term 1, which
    Horner's rule gives exactly (every product with u = 0 is an exact 0):
    inv and inv_sqrt return it without a product."""
    rng = np.random.default_rng(17)
    a0 = rng.uniform(0.5, 2.0, size=(3, 1, 1)) + 0j
    one = np.zeros((3, 5, 3), dtype=complex)
    one[:, 0, 0] = 1.0
    constant = Jet(one * a0, 4, 2)
    product, calls = jets_module._product, []

    def counting(a, b, rows, cols):
        calls.append(1)
        return product(a, b, rows, cols)

    monkeypatch.setattr(jets_module, "_product", counting)
    assert constant.inv().coeffs.tobytes() == (one / a0).tobytes()
    assert constant.inv_sqrt().coeffs.tobytes() == (
        one * a0.real ** -0.5).tobytes()
    assert not calls
    (constant + _batched(rng, (3,), order=4, eps_order=2)).inv()
    assert len(calls) == 6  # order + eps_order Horner products


def _full_depth(jet, power):
    """jet ** power for power -1 or -1/2, as inv and inv_sqrt compute it but
    by Horner's rule over every power of u = jet/a0 - 1 up to order +
    eps_order, the depth that never reads u's support."""
    a0 = jet.block[..., :1, :1]
    a0 = a0 if power == -1.0 else a0.real
    u = jet.block / a0
    u[..., 0, 0] = 0.0
    series = [1.0]
    for n in range(1, jet.order + jet.eps_order + 1):
        series.append(series[-1] * (power - (n - 1)) / n)
    result = np.full(u.shape[:-2] + (1, 1), series.pop(), dtype=complex)
    for coeff in reversed(series):
        result = jets_module._product(u, result, jet.order + 1, jet.eps_order + 1)
        result[..., 0, 0] += coeff
    result = result / a0 if power == -1.0 else result * a0 ** -0.5
    return Jet(result, jet.order, jet.eps_order)


def test_series_stop_at_the_first_power_of_u_that_vanishes(monkeypatch):
    """1 + eps**2 w at eps_order 6: u**4 carries eps**8, so inv and inv_sqrt
    sum u, u**2 and u**3 with three Horner products each, not order +
    eps_order = 10, and give the full-depth series bit for bit."""
    rng = np.random.default_rng(25)
    coeffs = np.zeros((3, 5, 7), dtype=complex)
    coeffs[:, 0, 0] = 1.0
    coeffs[:, :, 2] = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    jet, real = Jet(coeffs, 4, 6), Jet(coeffs.real + 0j, 4, 6)
    product, calls = jets_module._product, []

    def counting(a, b, rows, cols):
        calls.append(1)
        return product(a, b, rows, cols)

    monkeypatch.setattr(jets_module, "_product", counting)
    inv, inv_sqrt = jet.inv(), real.inv_sqrt()
    assert len(calls) == 6
    monkeypatch.undo()
    assert inv.coeffs.tobytes() == _full_depth(jet, -1.0).coeffs.tobytes()
    assert inv_sqrt.coeffs.tobytes() == _full_depth(real, -0.5).coeffs.tobytes()


#: positions of u = jet/a0 - 1 that may be nonzero, by j row and eps column
VALUATIONS = {"dense": (slice(None), slice(None)),
              "eps": (slice(None), slice(1, 2)), "eps2": (slice(None), slice(2, 3)),
              "fiber": (slice(1, None), slice(None)),
              "fiber2_eps": (slice(2, None), slice(1, None))}


@pytest.mark.parametrize("pattern", sorted(VALUATIONS))
@pytest.mark.parametrize("order,eps_order", [(4, 0), (4, 2), (8, 6)])
def test_short_series_equal_the_full_depth_series_bit_for_bit(
        pattern, order, eps_order):
    rng = np.random.default_rng(order * 10 + eps_order)
    shape = (4, order + 1, eps_order + 1)
    where = (slice(None),) + VALUATIONS[pattern]
    coeffs = np.zeros(shape, dtype=complex)
    coeffs[where] = (rng.normal(size=shape) + 1j * rng.normal(size=shape))[where]
    coeffs[:, 0, 0] = rng.uniform(0.5, 2.0, size=4)
    jet, real = Jet(coeffs, order, eps_order), Jet(coeffs.real + 0j, order, eps_order)
    assert jet.inv().coeffs.tobytes() == _full_depth(jet, -1.0).coeffs.tobytes()
    assert real.inv_sqrt().coeffs.tobytes() == _full_depth(
        real, -0.5).coeffs.tobytes()


def _trimmed(jet):
    """The jet stored as the smallest leading block that holds every
    coefficient that is nonzero in some batch element."""
    nonzero = jet.coeffs.reshape((-1,) + jet.coeffs.shape[-2:]).any(axis=0)
    rows = max(np.flatnonzero(nonzero.any(axis=1)), default=0) + 1
    cols = max(np.flatnonzero(nonzero.any(axis=0)), default=0) + 1
    return Jet(jet.coeffs[..., :rows, :cols], jet.order, jet.eps_order)


def _assert_full_view(jet, want):
    """coeffs is the full, read-only coefficient array and equals want; the
    stored block lies inside the truncation."""
    coeffs = jet.coeffs
    assert coeffs.shape == jet.batch_shape + (jet.order + 1, jet.eps_order + 1)
    assert not coeffs.flags.writeable
    assert coeffs.shape == want.shape
    assert np.array_equal(coeffs, want)
    assert jet.block.shape[-2] <= jet.order + 1
    assert jet.block.shape[-1] <= jet.eps_order + 1


def _batch_key(key):
    key = key if isinstance(key, tuple) else (key,)
    if not any(k is Ellipsis for k in key):
        key += (Ellipsis,)
    return key + (slice(None), slice(None))


@given(batched_jets(), batched_jets(), jets())
@settings(max_examples=25, deadline=None)
def test_blocks_read_as_their_dense_coefficients(x, y, plain):
    """With each operand of the product test's zero patterns stored as its
    smallest block, +, -, *, sum, indexing and stack give full-shape,
    read-only coeffs equal to the same operations on dense coefficients (a
    product bit for bit, since it multiplies the same pairs in the same
    order), and a product stores the block of the terms it writes."""
    for a_zeros, b_zeros in ZERO_PATTERNS:
        a, b = _trimmed(_sparse(x, a_zeros)), _trimmed(_sparse(y, b_zeros))
        A, B = a.coeffs, b.coeffs
        dense_a, dense_b = Jet(A, 4, 2), Jet(B, 4, 2)
        _assert_full_view(a + b, A + B)
        _assert_full_view(a - b, A - B)
        _assert_full_view(a + plain, (dense_a + plain).coeffs)
        _assert_full_view(1.5 - a, (1.5 - dense_a).coeffs)
        product = a * b
        _assert_full_view(product, (dense_a * dense_b).coeffs)
        _assert_full_view(a * plain, (dense_a * plain).coeffs)
        support = [c.reshape((-1, 5, 3)).any(axis=0).astype(float) for c in (A, B)]
        live = np.argwhere(_naive_product(*support) != 0)
        assert product.block.shape[-2:] == (
            tuple(live.max(axis=0) + 1) if len(live) else (1, 1))
        for axis, axes in ((0, 0), (-1, 1), ((0, 1), (0, 1))):
            _assert_full_view(a.sum(axis), A.sum(axis=axes))
        for key in BATCH_KEYS:
            _assert_full_view(a[key], A[_batch_key(key)])
        for axis in (0, -1, -3):
            _assert_full_view(stack([a, b, a], axis),
                              np.stack([A, B, A], axis=axis if axis >= 0 else axis - 2))


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
    assert (plain * a).max_abs_diff(a * plain) <= EQ_TOL


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


# -- real and complex blocks ------------------------------------------------


def test_a_block_is_real_until_a_complex_value_meets_it():
    """Real values give float64 blocks, complex ones complex128, and an
    operation that meets a complex operand promotes as numpy does; grade
    still reads complex numbers, and a real jet is its own conjugate."""
    rng = np.random.default_rng(27)
    real = Jet(rng.normal(size=(3, 5, 3)), 4, 2)
    cplx = _batched(rng, (3,), eps_order=2)
    eps = Jet([[0.0, 1.0]], 4, 2)
    for jet in (real, eps, Jet.variable(), Jet.const(2), jparam(4), jparam(4, 0.1),
                Jet([1, 2, 3]), real * eps + 1.5, real * np.array([1, 2, 3]), real / 2,
                stack([real, Jet(np.ones((3, 1, 1)), 4, 2)]), real.inv(),
                (real * real + 1).inv_sqrt()):
        assert jet.block.dtype == np.float64
    assert real.conjugate() is real
    assert real.grade(0).dtype == np.complex128
    assert isinstance(Jet.variable().grade(1), complex)
    for jet in (cplx, Jet.const(1j), real * cplx, cplx * real, real + cplx, real - 1j,
                real * np.array([1, 1j, 2]), 1j * real, contract(real, cplx, 0),
                stack([real, Jet(np.full((3, 1, 1), 1j), 4, 2)])):
        assert jet.block.dtype == np.complex128
    assert (real * cplx).coeffs.tobytes() == (
        Jet(real.coeffs + 0j, 4, 2) * cplx).coeffs.tobytes()


def _operands(rng, shape, block, real):
    """A jet of batch shape `shape` whose full (5, 3) block is cut to `block`."""
    coeffs = np.zeros(shape + (5, 3), dtype=complex)
    size = shape + block
    coeffs[..., :block[0], :block[1]] = rng.normal(size=size) + (
        0.0 if real else 1j * rng.normal(size=size))
    return Jet(coeffs.real if real else coeffs, 4, 2)


#: blocks whose product has fewer pairs than CONTRACT_PAIRS (the first), and more
CONTRACT_BLOCKS = [((2, 1), (2, 1)), ((5, 3), (5, 3)), ((2, 2), (5, 3))]


@pytest.mark.parametrize("block_a,block_b", CONTRACT_BLOCKS)
def test_contract_is_the_summed_product(block_a, block_b):
    """On random batch shapes, with operands that broadcast and real or
    complex ones, contract equals (a * b).sum(axes): bit for bit below
    CONTRACT_PAIRS, where it is that product and sum, and to round-off of
    the summed terms' magnitudes from it on."""
    rng = np.random.default_rng(sum(block_a) * 10 + sum(block_b))
    support = [jets_module._support(np.ones(block, dtype=bool))
               for block in (block_a, block_b)]
    pairs = len(jets_module._plan(block_a, block_b, 5, 3, *support)[0])
    assert (pairs < CONTRACT_PAIRS) == ((block_a, block_b) == CONTRACT_BLOCKS[0])
    for _ in range(40):
        shape = tuple(rng.integers(1, 5, size=rng.integers(1, 5)).tolist())
        n = len(shape)
        a_shape = tuple(s if rng.random() < 0.7 else 1 for s in shape)
        b_shape = tuple(s if rng.random() < 0.7 else 1 for s in shape)[rng.integers(0, 2):]
        axes = tuple(sorted((rng.choice(n, size=rng.integers(1, n + 1), replace=False)
                             - n).tolist()))
        a = _operands(rng, a_shape, block_a, rng.random() < 0.5)
        b = _operands(rng, b_shape, block_b, rng.random() < 0.5)
        got, want = contract(a, b, axes), (a * b).sum(axes)
        assert got.block.dtype == want.block.dtype
        if pairs < CONTRACT_PAIRS:
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            continue
        magnitude = (Jet(np.abs(a.block), 4, 2) * Jet(np.abs(b.block), 4, 2)).sum(axes)
        assert got.coeffs.shape == want.coeffs.shape
        assert np.abs(got.coeffs - want.coeffs).max() <= 1e-15 * 8 * magnitude.coeffs.max()


@pytest.mark.parametrize("block_a,block_b", CONTRACT_BLOCKS)
def test_contract_of_a_batch_is_each_element_alone(block_a, block_b):
    """Whether contract sums pairs over the axes first depends on the plan,
    never on the batch: each element of a batch of 20 equals its own
    contraction bit for bit, fused or not."""
    rng = np.random.default_rng(28)
    a = _operands(rng, (20, 3, 1, 4), block_a, True)
    b = _operands(rng, (20, 1, 3, 4), block_b, False)
    for axes in (-1, (-3, -2), (-3, -1)):
        batch = contract(a, b, axes)
        for i in range(20):
            assert batch[i].coeffs.tobytes() == contract(a[i], b[i], axes).coeffs.tobytes()
        pair = contract(a[3:5], b[3:5], axes)
        assert batch[3:5].coeffs.tobytes() == pair.coeffs.tobytes()
