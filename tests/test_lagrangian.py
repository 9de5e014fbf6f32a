"""Density-level identities: sector oracles, coordinate equivalence,
Yukawa forms and gauge invariance."""

import numpy as np
import pytest

from ewcontract.fields import (
    Couplings,
    PlaneWave,
    Sample,
    constant,
    gauge_transform,
    generator_vector_fields,
    phi_from_psi,
    phi_jacobian,
    sample_fermions,
    sample_gauge,
    sample_psi,
    stack_configs,
)
from ewcontract.group import one_param
from ewcontract.jets import DEFAULT_ORDER, Jet, stack
from ewcontract.lagrangian import (
    covariant_derivative_doublet,
    covariant_derivative_phi,
    covariant_derivative_phi_matrix,
    covariant_derivative_psi,
    fermion_kinetic_oracle,
    lagrangian_bosonic,
    lagrangian_fermion,
    lagrangian_gauge,
    lagrangian_gauge_trace,
    lagrangian_phi,
    lagrangian_psi,
    lagrangian_psi_closed,
    stress_tensors,
    yukawa_expanded_form,
    yukawa_matrix_form,
)
from ewcontract.spectrum import (
    epsilon_expand,
    random_bosonic_config,
    random_plane_wave,
)

ORDER = DEFAULT_ORDER
COUPLINGS = Couplings(g=0.65, gp=0.35, R=1.2, h_e=1.4)


def _random_point(rng):
    return rng.uniform(-0.5, 0.5, size=4)


def _random_samples(rng, amplitude=0.3):
    gauge, psicfg = random_bosonic_config(rng, amplitude=amplitude)
    x = _random_point(rng)
    return sample_gauge(gauge, x, ORDER), sample_psi(psicfg, x, ORDER)


def test_stress_tensor_antisymmetry():
    rng = np.random.default_rng(0)
    gs, _ = _random_samples(rng)
    F = stress_tensors(gs, COUPLINGS, np.arange(3))
    assert F.max_abs_diff(-F.swapaxes(-1, -2)) <= 1e-14
    for k in range(3):
        assert np.array_equal(stress_tensors(gs, COUPLINGS, k).coeffs,
                              F[k].coeffs)


def test_gauge_density_matches_matrix_trace_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        gs, _ = _random_samples(rng)
        component = lagrangian_gauge(gs, COUPLINGS)
        trace = lagrangian_gauge_trace(gs, COUPLINGS)
        assert component.max_abs_diff(trace) <= 1e-12


def test_covariant_derivative_component_vs_matrix_action():
    rng = np.random.default_rng(2)
    gs, ps = _random_samples(rng)
    phi = phi_from_psi(ps, COUPLINGS.R)
    comp = covariant_derivative_phi(phi, gs, COUPLINGS)
    matrix = covariant_derivative_phi_matrix(phi, gs, COUPLINGS)
    for c in range(2):
        for mu in range(4):
            assert comp[c][mu].max_abs_diff(matrix[c][mu]) <= 1e-13


def test_covariant_chain_rule():
    """D(phi(psi)) equals the coordinate jacobian applied to D(psi): the
    doublet and sphere pictures transport identically."""
    rng = np.random.default_rng(3)
    for _ in range(5):
        gs, ps = _random_samples(rng)
        phi = phi_from_psi(ps, COUPLINGS.R)
        dphi_cov = covariant_derivative_phi(phi, gs, COUPLINGS)
        dpsi_cov = covariant_derivative_psi(ps, gs, COUPLINGS)
        jac = phi_jacobian(ps.value, COUPLINGS.R)
        for comp in range(2):
            for mu in range(4):
                chain = Jet.zero(ORDER)
                for l in range(3):
                    chain = chain + jac[comp][l] * dpsi_cov[l][mu]
                assert dphi_cov[comp][mu].max_abs_diff(chain) <= 1e-12


def test_coordinate_equivalence_of_matter_densities():
    rng = np.random.default_rng(4)
    for _ in range(10):
        gs, ps = _random_samples(rng)
        phi = phi_from_psi(ps, COUPLINGS.R)
        doublet = lagrangian_phi(phi, gs, COUPLINGS)
        intrinsic = lagrangian_psi(ps, gs, COUPLINGS)
        scale = max(np.abs(doublet.coeffs).max(), 1.0)
        assert doublet.max_abs_diff(intrinsic) / scale <= 1e-12
        assert (
            intrinsic.max_abs_diff(lagrangian_psi_closed(ps, gs, COUPLINGS))
            / scale
            <= 1e-12
        )


def _gauge_one_direction_at_a_time(gs, c):
    total = 0.0
    for k in range(3):
        F = stress_tensors(gs, c, k)
        total = total + (F * F).sum((-2, -1))
    db = gs.grad[..., 3, :, :]
    B = db - db.swapaxes(-1, -2)
    return -0.25 * (total + (B * B).sum((-2, -1)))


def _covariant_derivative_one_generator_at_a_time(ps, gs, c):
    X = generator_vector_fields(ps.value)
    d = ps.grad
    for a in range(4):
        field = (c.g if a < 3 else c.gp) * gs.value[..., a, :]
        d = d + X[..., a, :, None] * field[..., None, :]
    return d


def _psi_one_metric_row_at_a_time(ps, gs, c):
    d = _covariant_derivative_one_generator_at_a_time(ps, gs, c)
    v = ps.value
    s = 1.0 + (v * v).sum(-1)
    total = 0.0
    for k in range(3):
        row = s[..., None] * np.eye(3)[k] - v[..., k, None] * v
        total = total + ((row[..., None] * d).sum(-2) * d[..., k, :]).sum(-1)
    return 0.5 * c.R**2 * (total * (s * s).inv())


@pytest.mark.parametrize("order,scale", [(ORDER, None), (8, Jet([[0.0, 1.0]], 8, 6))])
def test_contractions_match_their_loops(order, scale):
    """lagrangian_gauge, covariant_derivative_psi and lagrangian_psi contract
    every su(2) direction, generator and metric row in one broadcast; loops
    over them, as plain jets and at the expand command's shape, sum the
    same terms in another order, so they agree to round-off: 1e-14 of the
    largest coefficient, about 45 units in the last place."""
    rng = np.random.default_rng(25)
    gauge, psicfg = random_bosonic_config(rng)
    x = rng.uniform(-1.0, 1.0, size=(16, 4))
    gs = sample_gauge(gauge, x, order, scale=scale)
    ps = sample_psi(psicfg, x, order, scale=scale)
    for got, want in (
            (lagrangian_gauge(gs, COUPLINGS), _gauge_one_direction_at_a_time(gs, COUPLINGS)),
            (covariant_derivative_psi(ps, gs, COUPLINGS),
             _covariant_derivative_one_generator_at_a_time(ps, gs, COUPLINGS)),
            (lagrangian_psi(ps, gs, COUPLINGS), _psi_one_metric_row_at_a_time(ps, gs, COUPLINGS))):
        assert got.coeffs.shape == want.coeffs.shape
        assert got.max_abs_diff(want) <= 1e-14 * np.abs(want.coeffs).max()


def _complex_leptons(rng):
    """Plane waves with complex amplitudes over (e_l, nu_l, e_r) x spinor,
    drawn one after the other."""
    draws = [(complex(rng.normal(), rng.normal()), rng.normal(size=4),
              rng.uniform(-3, 3)) for _ in range(6)]
    amp, k, phase = (np.array(p) for p in zip(*draws))
    return PlaneWave(amp.reshape(3, 2), k.reshape(3, 2, 4), phase.reshape(3, 2))


@pytest.mark.parametrize("jval", [None, 1.0, 0.1])
def test_bosonic_values_are_real_and_matter_values_complex(jval):
    """At formal j, j = 1 and j = 0.1 the gauge and sphere samples, both
    bosonic densities and epsilon_expand's coefficients are float64 blocks,
    so no imaginary part is stored or multiplied; the leptons, the doublet,
    a group element and the lepton density are complex128."""
    rng = np.random.default_rng(29)
    gauge, psicfg = random_bosonic_config(rng)
    x = rng.uniform(-1.0, 1.0, size=(4, 4))
    gs, ps = sample_gauge(gauge, x, ORDER, jval), sample_psi(psicfg, x, ORDER, jval)
    expansion = epsilon_expand(lambda eps: lagrangian_bosonic(
        sample_gauge(gauge, x, ORDER, jval, eps), sample_psi(psicfg, x, ORDER, jval, eps),
        COUPLINGS), 2, ORDER)
    for jet in (gs.value, gs.grad, ps.value, ps.grad, lagrangian_gauge(gs, COUPLINGS),
                lagrangian_psi(ps, gs, COUPLINGS), *expansion):
        assert jet.block.dtype == np.float64
    fs = sample_fermions(_complex_leptons(rng), x, ORDER, jval)
    phi = phi_from_psi(ps, COUPLINGS.R)
    for jet in (fs.value, fs.grad, phi.value, phi.grad, one_param(1, 0.3, ORDER, jval).jet,
                lagrangian_fermion(fs, phi.value, gs, COUPLINGS)):
        assert jet.block.dtype == np.complex128


def test_yukawa_matrix_and_expanded_forms_agree():
    rng = np.random.default_rng(5)
    for _ in range(20):
        psicfg = random_plane_wave(rng, 0.5, (3,))
        fcfg = _complex_leptons(rng)
        x = _random_point(rng)
        ps = sample_psi(psicfg, x, ORDER)
        fs = sample_fermions(fcfg, x, ORDER)
        lhs = yukawa_matrix_form(phi_from_psi(ps, COUPLINGS.R).value, fs,
                                 COUPLINGS.h_e)
        rhs = yukawa_expanded_form(ps, fs, COUPLINGS)
        assert lhs.max_abs_diff(rhs) <= 1e-12


def test_fermion_density_mass_term_at_origin():
    """On constant unit electron spinors at psi = 0 the kinetic terms
    vanish, so the density is the mass term -h_e R (e_r+ e_l + e_l+ e_r)
    = -2 h_e R at every grade."""
    fcfg = constant(np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
    x = np.zeros(4)
    gs = sample_gauge(constant(np.zeros((4, 4))), x, ORDER)
    ps = sample_psi(constant(np.zeros(3)), x, ORDER)
    fs = sample_fermions(fcfg, x, ORDER)
    phi = phi_from_psi(ps, COUPLINGS.R).value
    density = lagrangian_fermion(fs, phi, gs, COUPLINGS)
    expected = -2.0 * COUPLINGS.h_e * COUPLINGS.R
    assert density.max_abs_diff(expected) <= 1e-13
    massless = Couplings(g=COUPLINGS.g, gp=COUPLINGS.gp, R=COUPLINGS.R, h_e=0.0)
    kinetic = lagrangian_fermion(fs, phi, gs, massless)
    assert kinetic.max_abs_diff(Jet.zero(ORDER)) <= 1e-14


def test_fermion_kinetic_terms_match_a_numpy_oracle():
    """The kinetic terms on random plane-wave fermions and gauge fields, at
    j = 1 and h_e = 0, against the docstring formula in plain numpy."""
    rng = np.random.default_rng(9)
    c = Couplings(g=COUPLINGS.g, gp=COUPLINGS.gp, R=COUPLINGS.R, h_e=0.0)
    draws = [(*random_bosonic_config(rng, amplitude=0.5), _complex_leptons(rng),
              _random_point(rng)) for _ in range(10)]
    *configs, points = zip(*draws)
    gauge, psicfg, fcfg = map(stack_configs, configs)
    x = np.array(points)
    gs = sample_gauge(gauge, x, ORDER, jval=1.0)
    phi = phi_from_psi(sample_psi(psicfg, x, ORDER, jval=1.0), c.R).value
    fs = sample_fermions(fcfg, x, ORDER, jval=1.0)
    density = lagrangian_fermion(fs, phi, gs, c)
    oracle = fermion_kinetic_oracle(gauge, fcfg, x, c)
    assert (abs(oracle) > 1e-3).all()
    for i in range(10):
        assert density[i].max_abs_diff(oracle[i]) <= 1e-12 * max(abs(oracle[i]), 1.0)


def test_lepton_density_is_even_in_j():
    """The neutrino carries one power of j, and every term of the fermion
    density pairs it with a second grade-1 factor (A^1, A^2, phi_2 or the
    neutrino again), so grades 1, 3 and 5 vanish exactly at formal j."""
    rng = np.random.default_rng(12)
    order = 6
    draws = [(*random_bosonic_config(rng, amplitude=0.5), _complex_leptons(rng),
              _random_point(rng)) for _ in range(20)]
    *configs, points = zip(*draws)
    gauge, psicfg, fcfg = map(stack_configs, configs)
    x = np.array(points)
    phi = phi_from_psi(sample_psi(psicfg, x, order), COUPLINGS.R).value
    density = lagrangian_fermion(sample_fermions(fcfg, x, order), phi,
                                 sample_gauge(gauge, x, order), COUPLINGS)
    assert density.batch_shape == (20,)
    assert np.abs(density.coeffs[:, 0::2]).max() > 0.1
    assert not density.coeffs[:, 1::2].any()


@pytest.mark.parametrize("jval", [None, 1.0])
def test_fermion_density_is_invariant_under_local_hypercharge(jval):
    """With theta(x) a plane wave and eps the ring's field scale, the
    shifts B -> B - eps d theta / g' and f -> (1 + i eps y_f theta) f,
    f = phi, e_l, nu_l, e_r, move the fermion density by an eps**1
    coefficient of at most 1e-12 of its eps**0 one, at the grades 0-2 of
    formal j and at j = 1: the first-order U(1)_Y variation, exactly."""
    grades = range(3) if jval is None else range(1)
    eps = Jet([[0.0, 1.0]], ORDER, 1)
    y_phi, y_leptons = 0.5, np.array([-0.5, -0.5, -1.0])  # e_l, nu_l, e_r
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        gauge, psicfg = random_bosonic_config(rng, amplitude=0.5)
        fcfg, theta = _complex_leptons(rng), random_plane_wave(rng, 1.0)
        x = rng.uniform(-0.5, 0.5, size=(8, 4))
        gs = sample_gauge(gauge, x, ORDER, jval)
        fs = sample_fermions(fcfg, x, ORDER, jval)
        phi = phi_from_psi(sample_psi(psicfg, x, ORDER, jval), COUPLINGS.R).value
        shift, dshift = np.zeros((8, 4, 4)), np.zeros((8, 4, 4, 4))
        shift[:, 3], dshift[:, 3] = theta.grad(x), theta.hess(x)
        gs_y = Sample(gs.value - eps * (shift / COUPLINGS.gp),
                      gs.grad - eps * (dshift / COUPLINGS.gp))
        phase = 1j * eps * theta.value(x)
        phi_y = (1.0 + y_phi * phase)[..., None] * phi
        rotate = 1.0 + phase[..., None] * y_leptons  # [point, field]
        dphase = 1j * eps * (theta.grad(x)[:, None, None, :]
                             * y_leptons[:, None, None])
        fs_y = Sample(rotate[..., None] * fs.value,
                      rotate[..., None, None] * fs.grad + dphase * fs.value[..., None])
        density = lagrangian_fermion(fs_y, phi_y, gs_y, COUPLINGS).coeffs
        size = np.abs(density[:, grades, 0]).max(axis=1)
        assert (size > 1e-3).all()
        worst = max(worst, (np.abs(density[:, grades, 1]).max(axis=1) / size).max())
    assert worst <= 1e-12


def _doublet_one_component_at_a_time(fs, gs, c):
    """The lepton doublet's covariant derivative, one Lorentz spinor
    component s after the other through the scalar doublet's, less the
    i g' B L that takes its hypercharge from +1/2 to -1/2."""
    el, nu = fs.value[..., 0, :], fs.value[..., 1, :]
    d_el, d_nu = fs.grad[..., 0, :, :], fs.grad[..., 1, :, :]
    b = gs.value[..., 3, None, :]
    per_s = []
    for s in range(2):
        doublet = stack([el[..., s], nu[..., s]])
        scalar = covariant_derivative_phi(Sample(
            doublet, stack([d_el[..., s, :], d_nu[..., s, :]], axis=-2)), gs, c)
        per_s.append(scalar - 1j * c.gp * (b * doublet[..., None]))
    return tuple(stack([d[..., comp, :] for d in per_s], axis=-2)
                 for comp in range(2))


@pytest.mark.parametrize("scale", [None, Jet([[0.0, 1.0]], ORDER, 2)])
def test_doublet_derivative_equals_one_spinor_component_at_a_time(scale):
    """Both spinor components in one pass give, bit for bit, the values of
    the per-component route, on 50 stacked configurations at 50 points."""
    rng = np.random.default_rng(11)
    draws = [(random_bosonic_config(rng, amplitude=0.5)[0], _complex_leptons(rng),
              _random_point(rng)) for _ in range(50)]
    gauge, fcfg, points = zip(*draws)
    x = np.array(points)
    gs = sample_gauge(stack_configs(gauge), x, ORDER, scale=scale)
    fs = sample_fermions(stack_configs(fcfg), x, ORDER, scale=scale)
    got = covariant_derivative_doublet(fs, gs, COUPLINGS)
    expected = _doublet_one_component_at_a_time(fs, gs, COUPLINGS)
    assert got.batch_shape == (50, 2, 2, 4)
    for d, ref in zip((got[..., 0, :, :], got[..., 1, :, :]), expected):
        assert d.batch_shape == (50, 2, 4)
        assert d.coeffs.shape == ref.coeffs.shape
        assert d.coeffs.tobytes() == ref.coeffs.tobytes()


@pytest.mark.parametrize("jval", [1.0, None, 0.1])
def test_gauge_variation_is_second_order(jval):
    """With the gauge parameters scaled by eps, the density's eps**1
    coefficient vanishes to round-off at the grades each contraction
    regime reads, and its eps**2 coefficient does not where T1 and T2 act.
    At formal j that is grade 2: grade 0 sees only the abelian T3 and Y,
    on which U = 1 + eps Theta is a group element at the angle
    arctan(eps theta), so there eps**2 vanishes too."""
    rng = np.random.default_rng(6)
    c = COUPLINGS
    grades = (0, 1) if jval is None else (0,)
    second_grades = (2,) if jval is None else (0,)
    for _ in range(5):
        gauge, psicfg = random_bosonic_config(rng, amplitude=0.1)
        eps = random_plane_wave(rng, 0.1, (4,))
        x = _random_point(rng)
        gs = sample_gauge(gauge, x, ORDER, jval)
        ps = sample_psi(psicfg, x, ORDER, jval)
        fs = sample_fermions(constant(np.zeros((3, 2))), x, ORDER, jval)

        def transformed(scale):
            gs2, ps2, _ = gauge_transform(eps, x, c, gs, ps, fs, jval, scale)
            return lagrangian_bosonic(gs2, ps2, c)

        density, first, second = epsilon_expand(transformed, 2)
        size = max(abs(density.grade(n)) for n in grades)
        assert max(abs(first.grade(n)) for n in grades) <= 1e-12 * size
        assert max(abs(second.grade(n)) for n in second_grades) > 1e-12 * size
        if jval is None:
            assert abs(second.grade(0)) <= 1e-12 * size


@pytest.mark.parametrize("jval", [1.0, None, 0.1])
def test_first_order_variation_is_exact_and_detects_a_wrong_transform(jval):
    """The eps**1 coefficient of the density under gauge parameters scaled
    by eps vanishes to round-off for the transformation of the density's
    own couplings, and not for one built with g doubled."""
    rng = np.random.default_rng(8)
    c = COUPLINGS
    wrong = Couplings(g=2.0 * c.g, gp=c.gp, R=c.R, h_e=c.h_e)
    gauge, psicfg = random_bosonic_config(rng, amplitude=0.1)
    eps = random_plane_wave(rng, 0.1, (4,))
    x = _random_point(rng)
    gs = sample_gauge(gauge, x, ORDER, jval)
    ps = sample_psi(psicfg, x, ORDER, jval)
    fs = sample_fermions(constant(np.zeros((3, 2))), x, ORDER, jval)

    def first_order(transform_couplings):
        def transformed(scale):
            gs2, ps2, _ = gauge_transform(eps, x, transform_couplings, gs, ps, fs,
                                          jval, scale)
            return lagrangian_bosonic(gs2, ps2, c)

        density, variation = epsilon_expand(transformed, 1)
        assert density.max_abs_diff(lagrangian_bosonic(gs, ps, c)) <= 1e-15
        return abs(variation.grade(0)) / abs(density.grade(0))

    assert first_order(c) <= 1e-13
    assert first_order(wrong) >= 1e-4


def test_base_density_ignores_fiber_gauge_fields():
    rng = np.random.default_rng(7)
    gauge, psicfg = random_bosonic_config(rng, amplitude=0.2)
    rescaled = gauge.scaled([[5.0], [5.0], [1.0], [1.0]])  # A^1 and A^2
    for _ in range(5):
        x = _random_point(rng)
        ps = sample_psi(psicfg, x, ORDER)
        before = lagrangian_bosonic(sample_gauge(gauge, x, ORDER), ps, COUPLINGS)
        after = lagrangian_bosonic(sample_gauge(rescaled, x, ORDER), ps, COUPLINGS)
        assert before.grade(0) == after.grade(0)
