"""Structure of the contracted group: commutator table, exponentials,
invariant form and charge assignments."""

import cmath
import types

import numpy as np
import pytest
from scipy.linalg import expm

from ewcontract.fields import (Couplings, Sample, constant, hermitian_form_jets,
                               sample_gauge)
from ewcontract.group import (
    DOUBLET_GENERATORS,
    LEPTON_GENERATORS,
    STRUCTURE_CONSTANTS,
    exp_closed_nilpotent,
    exp_closed_su2,
    exp_series,
    generator,
    graded_doublet,
    group_product,
    one_param,
    random_factors,
    u1_element,
    u1em_element,
)
from ewcontract.jets import DEFAULT_ORDER, Jet, JetMatrix2
from ewcontract.lagrangian import covariant_derivative_phi_matrix

ORDER = DEFAULT_ORDER
TOL = 1e-12


def test_matter_generators_represent_the_algebra():
    """Each matter field's generator matrices close under the structure
    constants taken by trace, the doublet's T_k are generator(k) at j = 1,
    and [T1, T2] = -T3 with Y central."""
    for gens in (DOUBLET_GENERATORS, LEPTON_GENERATORS):
        bracket = (np.einsum("aij,bjk->abik", gens, gens)
                   - np.einsum("bij,ajk->abik", gens, gens))
        assert np.abs(bracket - np.einsum("abc,cik->abik", STRUCTURE_CONSTANTS, gens)
                      ).max() <= 1e-16
    for k in (1, 2, 3):
        assert np.array_equal(generator(k, ORDER, jval=1.0).matrix.jet.grade(0),
                              DOUBLET_GENERATORS[k - 1])
    assert STRUCTURE_CONSTANTS[0, 1].tolist() == [0.0, 0.0, -1.0, 0.0]
    assert not STRUCTURE_CONSTANTS[3].any() and not STRUCTURE_CONSTANTS[:, 3].any()


def test_commutator_table_closed_form():
    gens = {k: generator(k, ORDER).matrix for k in (1, 2, 3)}
    table = {(k, l): gens[k].commutator(gens[l]) for k in gens for l in gens}
    j = Jet.variable(ORDER)
    expected = {(1, 2): gens[3] * -(j * j), (2, 3): -gens[1], (3, 1): -gens[2]}
    for (k, l), rhs in expected.items():
        assert table[(k, l)].max_abs_diff(rhs) <= TOL
        assert table[(l, k)].max_abs_diff(-rhs) <= TOL
    for k in (1, 2, 3):
        assert table[(k, k)].max_abs_diff(JetMatrix2.zero(ORDER)) <= TOL


def test_fiber_commutator_vanishes_at_nilpotent():
    comm = generator(1, ORDER).matrix.commutator(generator(2, ORDER).matrix)
    for r in range(2):
        for c in range(2):
            assert abs(comm[r, c].grade(0)) <= TOL
            assert abs(comm[r, c].grade(1)) <= TOL


def test_structure_constants_scale_as_j_squared_numerically():
    for t in (0.5, 0.1):
        comm = generator(1, ORDER, jval=t).matrix.commutator(
            generator(2, ORDER, jval=t).matrix
        )
        rhs = generator(3, ORDER, jval=t).matrix * -(t * t)
        assert comm.max_abs_diff(rhs) <= TOL


def test_exponential_series_against_scipy():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.uniform(-1.5, 1.5, size=3)
        got = exp_series(*a, order=ORDER, jval=1.0)
        m = np.array(
            [
                [0.5j * a[2], 0.5j * (a[0] - 1j * a[1])],
                [0.5j * (a[0] + 1j * a[1]), -0.5j * a[2]],
            ]
        )
        expected = expm(m)
        diff = max(
            abs(got[r, c].grade(0) - expected[r][c])
            for r in range(2)
            for c in range(2)
        )
        assert diff <= 1e-12


def test_closed_su2_exponential_matches_series():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.uniform(-2.0, 2.0, size=3)
        series = exp_series(*a, order=ORDER, jval=1.0)
        closed = exp_closed_su2(*a)
        diff = max(
            abs(series[r, c].grade(0) - closed[r][c])
            for r in range(2)
            for c in range(2)
        )
        assert diff <= 1e-12


def test_closed_nilpotent_exponential_matches_series_low_grades():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.uniform(-2.0, 2.0, size=3)
        if abs(a[2]) < 0.05:
            a[2] = 0.3
        series = exp_series(*a, order=ORDER)
        closed = exp_closed_nilpotent(*a, order=ORDER)
        for r in range(2):
            for c in range(2):
                for n in (0, 1):
                    assert abs(series[r, c].grade(n) - closed[r, c].grade(n)) <= TOL


def test_closed_nilpotent_rejects_singular_input():
    with pytest.raises(ValueError):
        exp_closed_nilpotent(0.4, -0.2, 0.0)


def test_random_products_are_unitary_and_unimodular():
    rng = np.random.default_rng(3)
    identity = JetMatrix2.identity(ORDER)
    one = Jet.const(1.0, ORDER)
    for _ in range(200):
        u = group_product(*random_factors(rng), ORDER)
        assert (u * u.dagger()).max_abs_diff(identity) <= TOL
        assert u.det().max_abs_diff(one) <= TOL


def test_trig_jets_satisfy_pythagoras():
    """det(c 1 + i s tau_k) = c^2 + s^2 = 1 for the truncated series of
    cos(j x) and sin(j x) at formal j, and for k = 3's closed values."""
    for k in (1, 2, 3):
        assert one_param(k, 1.4, ORDER).det().max_abs_diff(
            Jet.const(1.0, ORDER)) <= 1e-12, k


def test_one_param_subgroup_law():
    for k in (1, 2, 3):
        combined = one_param(k, 0.7) * one_param(k, 0.4)
        direct = one_param(k, 1.1)
        assert combined.max_abs_diff(direct) <= 1e-12


@pytest.mark.parametrize("jval", [None, 1.0, 0.1])
def test_one_param_is_the_series_exponential_along_its_generator(jval):
    """exp(angle T_k(j)) equals the normative series exponential of
    angle * e_k in su(2;j), for k = 1, 2, 3."""
    for k in (1, 2, 3):
        for angle in (-3.1, -0.4, 1.3, 2.9):
            coefficients = [0.0, 0.0, 0.0]
            coefficients[k - 1] = angle
            series = exp_series(*coefficients, order=ORDER, jval=jval)
            assert one_param(k, angle, ORDER, jval=jval).max_abs_diff(series) <= 1e-12


def test_hermitian_form_invariance_unit_and_nilpotent():
    rng = np.random.default_rng(4)
    for _ in range(50):
        d = graded_doublet(
            complex(rng.normal(), rng.normal()),
            complex(rng.normal(), rng.normal()),
            ORDER,
        )
        reference = hermitian_form_jets(d, d)
        for jval in (None, 1.0):
            u = group_product(*random_factors(rng), ORDER, jval)
            moved = u.apply(d)
            assert hermitian_form_jets(moved, moved).max_abs_diff(reference) <= 1e-11


def test_hermitian_form_weights_fiber_by_j_squared():
    d = graded_doublet(2.0, 3.0, ORDER)
    form = hermitian_form_jets(d, d)
    assert form.grade(0) == pytest.approx(4.0)
    assert form.grade(1) == pytest.approx(0.0)
    assert form.grade(2) == pytest.approx(9.0)


def test_u1_elements_commute_with_everything():
    rng = np.random.default_rng(5)
    y = u1_element(0.9, ORDER)
    for _ in range(10):
        u = group_product(*random_factors(rng), ORDER)
        assert (y * u).max_abs_diff(u * y) <= TOL


def test_charge_is_hypercharge_minus_third_generator():
    """With Q = Y - T3, exp(gamma Q) must equal exp(gamma Y) exp(-gamma T3)."""
    gamma = 0.37
    q = u1em_element(gamma, ORDER)
    combined = u1_element(gamma, ORDER) * one_param(3, -gamma, ORDER)
    assert q.max_abs_diff(combined) <= TOL


def test_hypercharge_matrix_value():
    """Y = (i/2) 1 as the matrix covariant derivative applies it: with
    A = 0, d phi = 0 and g' B_0 = 1 it maps the basis doublets to the
    columns of Y."""
    potentials = np.zeros((4, 4))  # over (A^1, A^2, A^3, B) x mu
    potentials[3, 0] = 1.0
    gs = sample_gauge(constant(potentials), np.zeros(4), ORDER)
    basis = Jet.const(np.eye(2), ORDER)  # [column, component]
    dphi = Jet.const(np.zeros((2, 2, 4)), ORDER)
    c = Couplings(g=1.0, gp=1.0, R=1.0)
    y = JetMatrix2(covariant_derivative_phi_matrix(Sample(basis, dphi), gs, c)[..., 0]
                   .swapaxes(0, 1))
    assert y[0, 0].grade(0) == 0.5j
    assert y[1, 1].grade(0) == 0.5j
    assert abs(y[0, 1].grade(0)) == 0.0


def test_electromagnetic_charge_leaves_upper_component_fixed():
    """exp(gamma Q) with Q = Y - T3 leaves the upper component, the vacuum
    direction, fixed and multiplies the lower one by e^{i gamma}."""
    d = graded_doublet(1.0 + 0.5j, -0.3 + 0.2j, ORDER)
    moved = u1em_element(0.61, ORDER).apply(d)
    phi1, phi2 = d
    assert moved[0].max_abs_diff(phi1) <= TOL
    assert moved[1].max_abs_diff(phi2 * cmath.exp(0.61j)) <= TOL


def _entries(m: JetMatrix2) -> np.ndarray:
    """The four entries' coefficients, stacked on a leading (2, 2) axis."""
    return np.array([[m[r, c].coeffs for c in range(2)] for r in range(2)])


def _assert_batch_is_stack(batched: JetMatrix2, singles) -> None:
    """Batch element i of every entry equals element i alone, bit for bit."""
    got = _entries(batched)
    want = np.stack([_entries(m) for m in singles], axis=2)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("jval", [None, 1.0, 0.1])
def test_one_param_on_arrays_is_the_stack_of_elements(jval):
    rng = np.random.default_rng(6)
    ks = rng.integers(1, 4, size=12)
    angles = rng.uniform(-np.pi, np.pi, size=12)
    _assert_batch_is_stack(
        one_param(ks, angles, ORDER, jval=jval),
        [one_param(int(k), float(a), ORDER, jval=jval) for k, a in zip(ks, angles)],
    )


def test_one_param_rejects_a_bad_index_in_an_array():
    with pytest.raises(ValueError):
        one_param(np.array([1, 4]), np.array([0.1, 0.2]))


@pytest.mark.parametrize("jval", [None, 1.0])
def test_exp_series_on_arrays_is_the_stack_of_elements(jval):
    rng = np.random.default_rng(7)
    a = rng.uniform(-2.0, 2.0, size=(3, 9))
    _assert_batch_is_stack(
        exp_series(*a, order=ORDER, jval=jval),
        [exp_series(*sample, order=ORDER, jval=jval) for sample in a.T],
    )
    if jval is None:
        closed = exp_closed_nilpotent(*a, order=ORDER)
        for i, sample in enumerate(a.T):
            single = exp_closed_nilpotent(*sample, order=ORDER)
            for r in range(2):
                for c in range(2):
                    assert np.allclose(closed[r, c].coeffs[i],
                                       single[r, c].coeffs, rtol=0, atol=1e-15)


def test_group_products_of_drawn_factors_are_the_stack_of_random_elements():
    """Drawing every factor first and multiplying once over a batch gives
    each random element bit for bit, and leaves the generator where the
    per-element draws leave it."""
    rng, reference = np.random.default_rng(8), np.random.default_rng(8)
    draws = [random_factors(rng) for _ in range(25)]
    batch = group_product(np.array([k for k, _ in draws]),
                          np.array([a for _, a in draws]), ORDER)
    _assert_batch_is_stack(batch, [group_product(*random_factors(reference), ORDER)
                                   for _ in range(25)])
    assert rng.bit_generator.state == reference.bit_generator.state


def test_matter_doublets_on_arrays_act_element_by_element():
    rng = np.random.default_rng(9)
    phi = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
    ks, angles = rng.integers(1, 4, size=(6, 3)), rng.uniform(-3, 3, size=(6, 3))
    moved = group_product(ks, angles, ORDER).apply(graded_doublet(*phi, ORDER))
    for i in range(6):
        single = group_product(ks[i], angles[i], ORDER).apply(
            graded_doublet(phi[0, i], phi[1, i], ORDER))
        assert np.array_equal(moved[i].coeffs, single.coeffs)


@pytest.mark.parametrize("bit_generator",
                         [np.random.PCG64, np.random.Philox, np.random.MT19937])
def test_random_factors_in_a_block_are_the_single_element_draws(bit_generator):
    """A block of seven elements is bit for bit seven single-element calls
    and leaves the generator where they leave it, for any bit generator."""
    rng, reference = (np.random.Generator(bit_generator(5)) for _ in range(2))
    ks, angles = random_factors(rng, (7,))
    singles = [random_factors(reference) for _ in range(7)]
    assert ks.shape == angles.shape == (7, 3) and ks.dtype == np.int64
    assert np.array_equal(ks, np.array([k for k, _ in singles]))
    assert angles.tobytes() == np.array([a for _, a in singles]).tobytes()
    assert rng.random() == reference.random()


def _constant_rng(value):
    """A stand-in generator whose random(shape) is one value throughout."""
    return types.SimpleNamespace(random=lambda shape: np.full(shape, value))


def test_random_factors_map_the_unit_interval_ends_into_range():
    ks, angles = random_factors(_constant_rng(np.nextafter(1.0, 0.0)), (2,))
    assert (ks == 3).all() and (angles < np.pi).all()
    ks, angles = random_factors(_constant_rng(0.0), (2,))
    assert (ks == 1).all() and (angles == -np.pi).all()
