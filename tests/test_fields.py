"""Analytic field oracles, contraction grading of point samples, the
sphere embedding and the generator vector fields."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from ewcontract.fields import (
    ConfigError,
    Couplings,
    EpsConfig,
    FermionConfig,
    GaugeConfig,
    PlaneWave,
    Polynomial,
    PsiConfig,
    constant,
    generator_vector_fields,
    generator_vector_jacobians,
    infinitesimal_gauge_transform,
    phi_from_psi,
    phi_jacobian,
    psi_generator_action,
    sample_fermions,
    sample_gauge,
    sample_psi,
    stack_configs,
)
from ewcontract.group import generator, hermitian_form_jets, hypercharge_matrix
from ewcontract.jets import DEFAULT_ORDER, Jet

ORDER = DEFAULT_ORDER


def _fd_grad(f, x, h=1e-6):
    out = np.zeros(4, dtype=complex)
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = h
        out[mu] = (f.value(x + e) - f.value(x - e)) / (2 * h)
    return out


def _fd_hess(f, x, h=1e-4):
    out = np.zeros((4, 4), dtype=complex)
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = h
        out[mu] = (f.grad(x + e) - f.grad(x - e)) / (2 * h)
    return out


@pytest.mark.parametrize(
    "field",
    [
        PlaneWave(0.8 - 0.3j, (0.4, -0.7, 0.2, 1.1), 0.5),
        Polynomial(
            1.2 + 0.1j,
            (0.3, -0.2, 0.5, 0.0),
            ((0.2, 0.1, 0.0, 0.0), (0.0, -0.3, 0.0, 0.2),
             (0.1, 0.0, 0.4, 0.0), (0.0, 0.0, 0.0, -0.1)),
        ),
    ],
)
def test_analytic_gradients_match_finite_differences(field):
    x = np.array([0.3, -0.1, 0.7, 0.2])
    assert np.allclose(field.grad(x), _fd_grad(field, x), atol=1e-8)
    assert np.allclose(field.hess(x), _fd_hess(field, x), atol=1e-6)
    assert np.allclose(field.hess(x), field.hess(x).T)


def test_scaled_field_scales_everything():
    f = PlaneWave(0.5, (1.0, 0.0, 0.0, 0.0), 0.2)
    x = np.array([0.4, 0.0, 0.0, 0.0])
    g = f.scaled(3.0)
    assert g.value(x) == pytest.approx(3.0 * f.value(x))
    assert np.allclose(g.grad(x), 3.0 * f.grad(x))
    # one factor per element
    p = Polynomial(np.array([0.5, 1.0]), np.ones((2, 4)), np.ones((2, 4, 4)))
    s = np.array([3.0, -2.0])
    q = p.scaled(s)
    assert np.allclose(q.value(x), s * p.value(x))
    assert np.allclose(q.grad(x), s[:, None] * p.grad(x))
    assert np.allclose(q.hess(x), s[:, None, None] * p.hess(x))


def test_couplings_validation():
    with pytest.raises(ConfigError):
        Couplings(g=0.0, gp=0.3, R=1.0)
    with pytest.raises(ConfigError):
        Couplings(g=0.5, gp=-0.1, R=1.0)
    with pytest.raises(ConfigError):
        Couplings(g=0.5, gp=0.3, R=1.0, h_e=-1.0)
    c = Couplings(g=0.6, gp=0.8, R=1.0)
    assert c.gz == pytest.approx(1.0)


def test_polynomial_derivatives_keep_element_axes():
    """A polynomial's elements are those of c0, lin and quad broadcast, so
    its gradient and hessian carry every element axis."""
    x = np.zeros(4)
    f = Polynomial(np.ones(3))
    assert f.value(x).shape == (3,)
    assert f.grad(x).shape == (3, 4)
    assert f.hess(x).shape == (3, 4, 4)
    f = Polynomial(1.0, np.ones((3, 4)))
    assert f.grad(x).shape == (3, 4)
    assert f.hess(x).shape == (3, 4, 4)
    f = Polynomial(np.ones(3), quad=np.eye(4))
    assert f.grad(np.zeros((5, 1, 4))).shape == (5, 3, 4)
    assert np.array_equal(f.hess(x), np.broadcast_to(2.0 * np.eye(4), (3, 4, 4)))


def test_constant_fields_have_the_shape_of_their_values():
    f = constant(np.arange(12.0).reshape(3, 4))
    assert np.shape(f.lin) == (3, 4, 4)
    x = np.ones((2, 1, 1, 4))
    assert np.array_equal(f.value(x), np.broadcast_to(f.c0, (2, 3, 4)))
    assert np.array_equal(f.grad(x), np.zeros((2, 3, 4, 4)))
    stacked = stack_configs([GaugeConfig.zero(), GaugeConfig.zero()])
    assert np.shape(stacked.A.lin) == (2, 3, 4, 4)


def test_gauge_sample_grading():
    cfg = GaugeConfig(
        constant(np.repeat([[1.0], [2.0], [3.0]], 4, axis=1)),
        constant(np.full(4, 9.0)),
    )
    gs = sample_gauge(cfg, np.zeros(4), ORDER)
    # fiber components sit at grade 1, base components at grade 0
    assert gs.a[0][0].grade(0) == 0.0
    assert gs.a[0][0].grade(1) == pytest.approx(1.0)
    assert gs.a[1][0].grade(1) == pytest.approx(2.0)
    assert gs.a[2][0].grade(0) == pytest.approx(3.0)
    assert gs.a[2][0].grade(1) == 0.0
    assert gs.b[0].grade(0) == pytest.approx(9.0)


def test_psi_and_fermion_sample_grading():
    ps = sample_psi(
        PsiConfig(constant(np.array([1.0, 2.0, 3.0]))),
        np.zeros(4),
        ORDER,
    )
    assert ps.psi[0].grade(1) == pytest.approx(1.0)
    assert ps.psi[1].grade(1) == pytest.approx(2.0)
    assert ps.psi[2].grade(0) == pytest.approx(3.0)

    unit = constant(np.array([1.0, 0.0]))
    fs = sample_fermions(FermionConfig(unit, unit, unit), np.zeros(4), ORDER)
    assert fs.el[0].grade(0) == pytest.approx(1.0)
    assert fs.nu[0].grade(0) == 0.0
    assert fs.nu[0].grade(1) == pytest.approx(1.0)
    assert fs.er[0].grade(0) == pytest.approx(1.0)


def _random_waves(rng, shape, amplitude=0.7):
    """Complex plane waves over components `shape`, drawn one component
    after the other in row-major order."""
    draws = [(complex(rng.normal(), rng.normal()) * amplitude,
              rng.normal(size=4), rng.uniform(-3, 3))
             for _ in range(math.prod(shape))]
    amp, k, phase = (np.array(p) for p in zip(*draws))
    return PlaneWave(amp.reshape(shape), k.reshape(shape + (4,)),
                     phase.reshape(shape))


def _random_polynomial(rng, shape):
    """Complex quadratic polynomials over components `shape`."""
    return Polynomial(rng.normal(size=shape) + 1j * rng.normal(size=shape),
                      rng.normal(size=shape + (4,)),
                      rng.normal(size=shape + (4, 4)))


def _jets(value):
    """The jets of a (nested) list, in order."""
    if isinstance(value, list):
        return [jet for item in value for jet in _jets(item)]
    return [value]


def _same_samples(batched, per_point, fields):
    """Every jet field of a sample at N points equals the stack of the
    samples at each point, to 1e-15 of scale."""
    for name in fields:
        got = np.array([j.coeffs for j in _jets(getattr(batched, name))])
        want = np.array([[j.coeffs for j in _jets(getattr(s, name))]
                         for s in per_point])
        assert got.shape == (want.shape[1], want.shape[0]) + want.shape[2:]
        scale = max(np.abs(want).max(), 1.0)
        assert np.abs(got - np.swapaxes(want, 0, 1)).max() <= 1e-15 * scale


@pytest.mark.parametrize("with_scale", [False, True])
def test_sampling_a_points_array_equals_per_point_samples(with_scale):
    rng = np.random.default_rng(21)
    points = rng.uniform(-1.0, 1.0, size=(5, 4))
    scale = Jet([[0.0, 1.0]], ORDER, 2) if with_scale else None
    gauge = GaugeConfig(_random_waves(rng, (3, 4)),
                        _random_polynomial(rng, (4,)))
    psi = PsiConfig(_random_polynomial(rng, (3,)))
    fermions = FermionConfig(*(_random_waves(rng, (2,)) for _ in range(3)))
    _same_samples(sample_gauge(gauge, points, ORDER, scale=scale),
                  [sample_gauge(gauge, x, ORDER, scale=scale) for x in points],
                  ("a", "da", "b", "db"))
    _same_samples(sample_psi(psi, points, ORDER, scale=scale),
                  [sample_psi(psi, x, ORDER, scale=scale) for x in points],
                  ("psi", "dpsi"))
    _same_samples(sample_fermions(fermions, points, ORDER, scale=scale),
                  [sample_fermions(fermions, x, ORDER, scale=scale)
                   for x in points],
                  ("el", "d_el", "nu", "d_nu", "er", "d_er"))
    for field in (gauge.B, fermions.e_l):
        assert np.allclose(field.hess(points[:, None, :]),
                           [field.hess(x[None, :]) for x in points])


@pytest.mark.parametrize("with_scale", [False, True])
def test_stacked_configurations_pair_with_their_points(with_scale):
    """N configurations stacked and sampled at (N, 4) points give, in batch
    element i, configuration i sampled at point i; so does the gauge
    transform with stacked parameter fields."""
    rng = np.random.default_rng(22)
    n = 6
    points = rng.uniform(-1.0, 1.0, size=(n, 4))
    scale = Jet([[0.0, 1.0]], ORDER, 2) if with_scale else None
    gauges = [GaugeConfig(_random_waves(rng, (3, 4), 0.3),
                          _random_polynomial(rng, (4,))) for _ in range(n)]
    psis = [PsiConfig(_random_waves(rng, (3,), 0.3)) for _ in range(n)]
    fermions = [FermionConfig(*(_random_waves(rng, (2,)) for _ in range(3)))
                for _ in range(n)]
    params = [EpsConfig(_random_polynomial(rng, (4,))) for _ in range(n)]
    per_sample = list(zip(gauges, psis, fermions, params, points))

    gs = sample_gauge(stack_configs(gauges), points, ORDER, scale=scale)
    singles = [sample_gauge(g, x, ORDER, scale=scale) for g, *_, x in per_sample]
    _same_samples(gs, singles, ("a", "da", "b", "db"))
    ps = sample_psi(stack_configs(psis), points, ORDER, scale=scale)
    _same_samples(ps, [sample_psi(p, x, ORDER, scale=scale)
                       for _, p, *_, x in per_sample], ("psi", "dpsi"))
    _same_samples(sample_fermions(stack_configs(fermions), points, ORDER,
                                  scale=scale),
                  [sample_fermions(f, x, ORDER, scale=scale)
                   for _, _, f, _, x in per_sample],
                  ("el", "d_el", "nu", "d_nu", "er", "d_er"))

    c = Couplings(g=0.65, gp=0.35, R=1.0)
    gs2, ps2 = infinitesimal_gauge_transform(gs, ps, stack_configs(params),
                                             points, c, scale=scale)
    moved = [infinitesimal_gauge_transform(
        sample_gauge(g, x, ORDER, scale=scale), sample_psi(p, x, ORDER, scale=scale),
        e, x, c, scale=scale) for g, p, _, e, x in per_sample]
    _same_samples(gs2, [m[0] for m in moved], ("a", "da", "b", "db"))
    _same_samples(ps2, [m[1] for m in moved], ("psi", "dpsi"))


def test_stacked_configurations_broadcast_over_one_point():
    """Stacked constant backgrounds at one point: one sample per
    configuration."""
    cfgs = [PsiConfig(constant(np.array([v, 0.0, 2.0 * v])))
            for v in (0.5, -1.0, 3.0)]
    ps = sample_psi(stack_configs(cfgs), np.zeros(4), ORDER)
    for i, cfg in enumerate(cfgs):
        single = sample_psi(cfg, np.zeros(4), ORDER)
        assert np.array_equal(ps.psi[i].coeffs, single.psi.coeffs)


def test_stacking_needs_matching_field_types():
    waves = PsiConfig(PlaneWave(np.full(3, 0.1), np.tile([1.0, 0.0, 0.0, 0.0],
                                                         (3, 1))))
    with pytest.raises(ValueError):
        stack_configs([waves, PsiConfig.zero()])


def test_numeric_sampling_collapses_grades():
    ps = sample_psi(
        PsiConfig(constant(np.array([1.0, 0.0, 0.0]))),
        np.zeros(4),
        ORDER,
        jval=0.25,
    )
    assert ps.psi[0].grade(0) == pytest.approx(0.25)
    assert ps.psi[0].grade(1) == 0.0


def test_sphere_embedding_constraint():
    rng = np.random.default_rng(0)
    R = 1.7
    for _ in range(30):
        draws = [(rng.normal() * 0.8, rng.normal(size=4)) for _ in range(3)]
        cfg = PsiConfig(PlaneWave(np.array([a for a, _ in draws]),
                                  np.array([k for _, k in draws]), 0.1))
        ps = sample_psi(cfg, rng.uniform(-1, 1, size=4), ORDER)
        phi, _ = phi_from_psi(ps, R)
        form = hermitian_form_jets(phi, phi)
        assert form.max_abs_diff(R**2) <= 1e-10


def test_phi_gradient_matches_chain_rule_via_jacobian():
    rng = np.random.default_rng(1)
    draws = [(rng.normal() * 0.5, rng.normal(size=4)) for _ in range(3)]
    cfg = PsiConfig(PlaneWave(np.array([a for a, _ in draws]),
                              np.array([k for _, k in draws]), 0.3))
    x = np.array([0.2, -0.3, 0.5, 0.1])
    ps = sample_psi(cfg, x, ORDER)
    phi, dphi = phi_from_psi(ps, 1.0)
    jac = phi_jacobian(ps.psi, 1.0)
    for comp in range(2):
        for mu in range(4):
            chain = Jet.zero(ORDER)
            for l in range(3):
                chain = chain + jac[comp][l] * ps.dpsi[l][mu]
            assert dphi[comp][mu].max_abs_diff(chain) <= 1e-12


def _phi_of(psi, R):
    r = R / math.sqrt(1.0 + float(psi @ psi))
    return np.array([r * (1 + 1j * psi[2]), r * (psi[1] + 1j * psi[0])])


def _psi_of(phi):
    r = phi[0].real
    return np.array([phi[1].imag / r, phi[1].real / r, phi[0].imag / r])


def test_generator_vector_fields_are_flow_pushforwards():
    """X_a must be the time derivative of the coordinate flow induced by
    exp(t T_a) on the embedded sphere (the convention-fixing oracle)."""
    rng = np.random.default_rng(2)
    mats = [
        np.array(
            [
                [generator(k, ORDER, jval=1.0).matrix[r, c].grade(0)
                 for c in range(2)]
                for r in range(2)
            ]
        )
        for k in (1, 2, 3)
    ]
    mats.append(np.array(
        [[hypercharge_matrix(ORDER)[r, c].grade(0) for c in range(2)]
         for r in range(2)]
    ))
    h = 1e-6
    for _ in range(5):
        psi = rng.normal(size=3) * 0.6
        phi = _phi_of(psi, 1.4)
        fields = generator_vector_fields(Jet.const(psi, ORDER)).grade(0).real
        for a, m in enumerate(mats):
            flowed = (
                _psi_of(expm(h * m) @ phi) - _psi_of(expm(-h * m) @ phi)
            ) / (2 * h)
            assert np.allclose(flowed, fields[a], atol=1e-8)


def test_generator_jacobians_match_finite_differences():
    rng = np.random.default_rng(3)
    psi = rng.normal(size=3) * 0.7
    h = 1e-6
    jac = generator_vector_jacobians(Jet.const(psi, ORDER)).grade(0)
    for l in range(3):
        up = psi.copy()
        up[l] += h
        dn = psi.copy()
        dn[l] -= h
        fd = (
            generator_vector_fields(Jet.const(up, ORDER)).grade(0)
            - generator_vector_fields(Jet.const(dn, ORDER)).grade(0)
        ) / (2 * h)
        for a in range(4):
            for k in range(3):
                assert abs(jac[a, k, l] - fd[a, k]) <= 1e-8


def _bracket(a, b, v):
    """[X_a, X_b]_k = sum_l X_a,l d_l X_b,k - X_b,l d_l X_a,k."""
    x, jac = generator_vector_fields(v), generator_vector_jacobians(v)
    out = []
    for k in range(3):
        t = Jet.zero(v.order)
        for l in range(3):
            t = t + x[a, l] * jac[b, k, l] - x[b, l] * jac[a, k, l]
        out.append(t)
    return out


def test_vector_field_bracket_table():
    """Pushforwards of a left action realize the opposite algebra:
    [X1,X2] = +X3 cyclic (the matrix bracket gives -T3), and the
    hypercharge field commutes with all three."""
    rng = np.random.default_rng(4)
    v = Jet.const(rng.normal(size=3), ORDER)
    fields = generator_vector_fields(v)
    cyclic = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
    for (a, b), c in cyclic.items():
        br = _bracket(a, b, v)
        for k in range(3):
            assert br[k].max_abs_diff(fields[c, k]) <= 1e-12
    for a in range(3):
        br = _bracket(a, 3, v)
        for k in range(3):
            assert br[k].max_abs_diff(Jet.zero(ORDER)) <= 1e-12


def test_psi_generator_action_grading():
    v = Jet.const(np.array([0.3, -0.2, 0.5]), ORDER)
    action = psi_generator_action(v)
    plain = generator_vector_fields(v)
    for a, grade in enumerate((1, 1, 0, 0)):
        for k in range(3):
            assert action[a, k].grade(grade) == pytest.approx(
                plain[a, k].grade(0), abs=1e-14
            )


def test_zero_parameter_gauge_transform_is_identity():
    rng = np.random.default_rng(5)
    c = Couplings(g=0.65, gp=0.35, R=1.0)
    gauge = GaugeConfig(PlaneWave(0.2, rng.normal(size=(3, 4, 4)), 0.0),
                        PlaneWave(0.2, rng.normal(size=(4, 4)), 0.0))
    psicfg = PsiConfig(PlaneWave(0.2, rng.normal(size=(3, 4)), 0.0))
    x = np.array([0.1, 0.2, -0.3, 0.4])
    gs = sample_gauge(gauge, x, ORDER)
    ps = sample_psi(psicfg, x, ORDER)
    eps = EpsConfig(Polynomial(np.zeros(4)))
    gs2, ps2 = infinitesimal_gauge_transform(gs, ps, eps, x, c)
    for k in range(3):
        for mu in range(4):
            assert gs2.a[k][mu].max_abs_diff(gs.a[k][mu]) == 0.0
    for k in range(3):
        assert ps2.psi[k].max_abs_diff(ps.psi[k]) == 0.0
