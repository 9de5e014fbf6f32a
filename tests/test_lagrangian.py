"""Density-level identities: sector oracles, coordinate equivalence,
Yukawa forms and gauge invariance."""

import numpy as np
import pytest

from ewcontract.fields import (
    Couplings,
    EpsConfig,
    FermionConfig,
    GaugeConfig,
    PlaneWave,
    PsiConfig,
    infinitesimal_gauge_transform,
    phi_from_psi,
    phi_jacobian,
    sample_fermions,
    sample_gauge,
    sample_psi,
    stack_configs,
)
from ewcontract.jets import DEFAULT_ORDER, Jet, stack
from ewcontract.lagrangian import (
    covariant_derivative_doublet,
    covariant_derivative_phi,
    covariant_derivative_phi_matrix,
    covariant_derivative_psi,
    fermion_kinetic_oracle,
    fermion_mass_identity,
    lagrangian_bosonic,
    lagrangian_fermion,
    lagrangian_gauge,
    lagrangian_gauge_trace,
    lagrangian_phi,
    lagrangian_psi,
    lagrangian_psi_closed,
    stress_tensors,
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
    phi, dphi = phi_from_psi(ps, COUPLINGS.R)
    comp = covariant_derivative_phi(phi, dphi, gs, COUPLINGS)
    matrix = covariant_derivative_phi_matrix(phi, dphi, gs, COUPLINGS)
    for c in range(2):
        for mu in range(4):
            assert comp[c][mu].max_abs_diff(matrix[c][mu]) <= 1e-13


def test_covariant_chain_rule():
    """D(phi(psi)) equals the coordinate jacobian applied to D(psi): the
    doublet and sphere pictures transport identically."""
    rng = np.random.default_rng(3)
    for _ in range(5):
        gs, ps = _random_samples(rng)
        phi, dphi = phi_from_psi(ps, COUPLINGS.R)
        dphi_cov = covariant_derivative_phi(phi, dphi, gs, COUPLINGS)
        dpsi_cov = covariant_derivative_psi(ps, gs, COUPLINGS)
        jac = phi_jacobian(ps.psi, COUPLINGS.R)
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
        phi, dphi = phi_from_psi(ps, COUPLINGS.R)
        doublet = lagrangian_phi(phi, dphi, gs, COUPLINGS)
        intrinsic = lagrangian_psi(ps, gs, COUPLINGS)
        scale = max(np.abs(doublet.coeffs).max(), 1.0)
        assert doublet.max_abs_diff(intrinsic) / scale <= 1e-12
        assert (
            intrinsic.max_abs_diff(lagrangian_psi_closed(ps, gs, COUPLINGS))
            / scale
            <= 1e-12
        )


def _complex_waves(rng):
    """Two plane waves with complex amplitudes, drawn one after the other."""
    draws = [(complex(rng.normal(), rng.normal()), rng.normal(size=4),
              rng.uniform(-3, 3)) for _ in range(2)]
    return PlaneWave(*(np.array(p) for p in zip(*draws)))


def test_yukawa_matrix_and_expanded_forms_agree():
    rng = np.random.default_rng(5)
    for _ in range(20):
        psicfg = PsiConfig(random_plane_wave(rng, 0.5, (3,)))
        fcfg = FermionConfig(*(_complex_waves(rng) for _ in range(3)))
        x = _random_point(rng)
        ps = sample_psi(psicfg, x, ORDER)
        fs = sample_fermions(fcfg, x, ORDER)
        lhs, rhs = fermion_mass_identity(ps, fs, COUPLINGS)
        assert lhs.max_abs_diff(rhs) <= 1e-12


def test_fermion_density_mass_term_at_origin():
    """On constant unit electron spinors at psi = 0 the kinetic terms
    vanish, so the density is the mass term -h_e R (e_r+ e_l + e_l+ e_r)
    = -2 h_e R at every grade."""
    unit = PlaneWave(np.array([1.0, 0.0]), np.zeros((2, 4)))
    zero = PlaneWave(np.zeros(2), np.zeros((2, 4)))
    fcfg = FermionConfig(unit, zero, unit)
    x = np.zeros(4)
    gs = sample_gauge(GaugeConfig.zero(), x, ORDER)
    ps = sample_psi(PsiConfig.zero(), x, ORDER)
    fs = sample_fermions(fcfg, x, ORDER)
    phi, _ = phi_from_psi(ps, COUPLINGS.R)
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
    draws = [(*random_bosonic_config(rng, amplitude=0.5),
              FermionConfig(*(_complex_waves(rng) for _ in range(3))),
              _random_point(rng)) for _ in range(10)]
    *configs, points = zip(*draws)
    gauge, psicfg, fcfg = map(stack_configs, configs)
    x = np.array(points)
    gs = sample_gauge(gauge, x, ORDER, jval=1.0)
    phi, _ = phi_from_psi(sample_psi(psicfg, x, ORDER, jval=1.0), c.R)
    fs = sample_fermions(fcfg, x, ORDER, jval=1.0)
    density = lagrangian_fermion(fs, phi, gs, c)
    oracle = fermion_kinetic_oracle(gauge, fcfg, x, c)
    assert (abs(oracle) > 1e-3).all()
    for i in range(10):
        assert density[i].max_abs_diff(oracle[i]) <= 1e-12 * max(abs(oracle[i]), 1.0)


def _doublet_one_component_at_a_time(fs, gs, c):
    """The lepton doublet's covariant derivative, one Lorentz spinor
    component s after the other through the scalar doublet's."""
    per_s = [covariant_derivative_phi(
        stack([fs.el[..., s], fs.nu[..., s]]),
        stack([fs.d_el[..., s, :], fs.d_nu[..., s, :]], axis=-2), gs, c)
        for s in range(2)]
    return tuple(stack([d[..., comp, :] for d in per_s], axis=-2)
                 for comp in range(2))


@pytest.mark.parametrize("scale", [None, Jet([[0.0, 1.0]], ORDER, 2)])
def test_doublet_derivative_equals_one_spinor_component_at_a_time(scale):
    """Both spinor components in one pass give, bit for bit, the values of
    the per-component route, on 50 stacked configurations at 50 points."""
    rng = np.random.default_rng(11)
    draws = [(random_bosonic_config(rng, amplitude=0.5)[0],
              FermionConfig(*(_complex_waves(rng) for _ in range(3))),
              _random_point(rng)) for _ in range(50)]
    gauge, fcfg, points = zip(*draws)
    x = np.array(points)
    gs = sample_gauge(stack_configs(gauge), x, ORDER, scale=scale)
    fs = sample_fermions(stack_configs(fcfg), x, ORDER, scale=scale)
    got = covariant_derivative_doublet(fs, gs, COUPLINGS)
    expected = _doublet_one_component_at_a_time(fs, gs, COUPLINGS)
    for d, ref in zip(got, expected):
        assert d.batch_shape == (50, 2, 4)
        assert d.coeffs.shape == ref.coeffs.shape
        assert d.coeffs.tobytes() == ref.coeffs.tobytes()


@pytest.mark.parametrize("jval", [1.0, None, 0.1])
def test_gauge_variation_is_second_order(jval):
    """With the gauge parameters scaled by eps, the density's eps**1
    coefficient vanishes to round-off and its eps**2 coefficient does not,
    at the grades each contraction regime reads."""
    rng = np.random.default_rng(6)
    c = COUPLINGS
    grades = (0, 1) if jval is None else (0,)
    for _ in range(5):
        gauge, psicfg = random_bosonic_config(rng, amplitude=0.1)
        eps = EpsConfig(random_plane_wave(rng, 0.1, (4,)))
        x = _random_point(rng)
        gs = sample_gauge(gauge, x, ORDER, jval)
        ps = sample_psi(psicfg, x, ORDER, jval)

        def transformed(scale):
            gs2, ps2 = infinitesimal_gauge_transform(
                gs, ps, eps, x, c, jval, scale
            )
            return lagrangian_bosonic(gs2, ps2, c)

        density, first, second = epsilon_expand(transformed, 2)
        size = max(abs(density.grade(n)) for n in grades)
        assert max(abs(first.grade(n)) for n in grades) <= 1e-12 * size
        assert max(abs(second.grade(n)) for n in grades) > 1e-12 * size


@pytest.mark.parametrize("jval", [1.0, None, 0.1])
def test_first_order_variation_is_exact_and_detects_a_wrong_transform(jval):
    """The eps**1 coefficient of the density under gauge parameters scaled
    by eps vanishes to round-off for the transformation of the density's
    own couplings, and not for one built with g doubled."""
    rng = np.random.default_rng(8)
    c = COUPLINGS
    wrong = Couplings(g=2.0 * c.g, gp=c.gp, R=c.R, h_e=c.h_e)
    gauge, psicfg = random_bosonic_config(rng, amplitude=0.1)
    eps = EpsConfig(random_plane_wave(rng, 0.1, (4,)))
    x = _random_point(rng)
    gs = sample_gauge(gauge, x, ORDER, jval)
    ps = sample_psi(psicfg, x, ORDER, jval)

    def first_order(transform_couplings):
        def transformed(scale):
            gs2, ps2 = infinitesimal_gauge_transform(
                gs, ps, eps, x, transform_couplings, jval, scale
            )
            return lagrangian_bosonic(gs2, ps2, c)

        density, variation = epsilon_expand(transformed, 1)
        assert density.max_abs_diff(lagrangian_bosonic(gs, ps, c)) <= 1e-15
        return abs(variation.grade(0)) / abs(density.grade(0))

    assert first_order(c) <= 1e-13
    assert first_order(wrong) >= 1e-4


def test_base_density_ignores_fiber_gauge_fields():
    rng = np.random.default_rng(7)
    gauge, psicfg = random_bosonic_config(rng, amplitude=0.2)
    rescaled = gauge.fiber_scaled(5.0)
    for _ in range(5):
        x = _random_point(rng)
        ps = sample_psi(psicfg, x, ORDER)
        before = lagrangian_bosonic(sample_gauge(gauge, x, ORDER), ps, COUPLINGS)
        after = lagrangian_bosonic(sample_gauge(rescaled, x, ORDER), ps, COUPLINGS)
        assert before.grade(0) == after.grade(0)
