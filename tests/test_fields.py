"""Analytic field oracles, contraction grading of point samples, the
sphere embedding, the generator vector fields and the gauge transform."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from ewcontract.fields import (
    ConfigError,
    Couplings,
    PlaneWave,
    Sample,
    constant,
    gauge_transform,
    generator_vector_fields,
    hermitian_form_jets,
    phi_from_psi,
    phi_jacobian,
    phi_value,
    sample_fermions,
    sample_gauge,
    sample_psi,
    stack_configs,
)
from ewcontract.group import generator
from ewcontract.jets import DEFAULT_ORDER, Jet, stack
from ewcontract.spectrum import epsilon_expand, random_bosonic_config, random_plane_wave

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
        PlaneWave(np.array([1.2 + 0.1j, -0.4 + 0.6j]),
                  np.array([[0.3, -0.2, 0.5, 0.0], [-0.6, 0.1, 0.0, 0.9]]),
                  np.array([0.0, -1.3])),
    ],
)
def test_analytic_gradients_match_finite_differences(field):
    """Per element: a wave with parameter arrays of shape (2,) is two
    waves, each with its own exact gradient and hessian."""
    x = np.array([0.3, -0.1, 0.7, 0.2])
    grad, hess = field.grad(x), field.hess(x)
    for i in np.ndindex(np.shape(field.amplitude)):
        part = PlaneWave(np.asarray(field.amplitude)[i],
                         np.asarray(field.wavevector)[i],
                         np.asarray(field.phase)[i])
        assert np.allclose(grad[i], _fd_grad(part, x), atol=1e-8)
        assert np.allclose(hess[i], _fd_hess(part, x), atol=1e-6)
        assert np.allclose(hess[i], hess[i].T)


def test_scaled_field_scales_everything():
    f = PlaneWave(0.5, (1.0, 0.0, 0.0, 0.0), 0.2)
    x = np.array([0.4, 0.0, 0.0, 0.0])
    g = f.scaled(3.0)
    assert g.value(x) == pytest.approx(3.0 * f.value(x))
    assert np.allclose(g.grad(x), 3.0 * f.grad(x))
    # one factor per element
    p = PlaneWave(np.array([0.5, 1.0]), np.ones((2, 4)), np.array([0.2, -0.7]))
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


def test_constant_fields_have_the_shape_of_their_values():
    values = np.arange(12.0).reshape(3, 4)
    f = constant(values)
    x = np.ones((2, 1, 1, 4))
    value, grad, hess = f.value(x), f.grad(x), f.hess(x)
    assert np.array_equal(value, np.broadcast_to(values, (2, 3, 4)))
    assert grad.shape == (2, 3, 4, 4) and not grad.any()
    assert hess.shape == (2, 3, 4, 4, 4) and not hess.any()
    stacked = stack_configs([constant(np.zeros((4, 4))), constant(np.zeros((4, 4)))])
    assert np.shape(stacked.wavevector) == (2, 4, 4, 4)


def test_gauge_sample_grading():
    cfg = constant(np.repeat([[1.0], [2.0], [3.0], [9.0]], 4, axis=1))
    gs = sample_gauge(cfg, np.zeros(4), ORDER)
    # fiber components sit at grade 1, base components at grade 0
    assert gs.value[0][0].grade(0) == 0.0
    assert gs.value[0][0].grade(1) == pytest.approx(1.0)
    assert gs.value[1][0].grade(1) == pytest.approx(2.0)
    assert gs.value[2][0].grade(0) == pytest.approx(3.0)
    assert gs.value[2][0].grade(1) == 0.0
    assert gs.value[3][0].grade(0) == pytest.approx(9.0)


def test_psi_and_fermion_sample_grading():
    ps = sample_psi(constant(np.array([1.0, 2.0, 3.0])), np.zeros(4), ORDER)
    assert ps.value[0].grade(1) == pytest.approx(1.0)
    assert ps.value[1].grade(1) == pytest.approx(2.0)
    assert ps.value[2].grade(0) == pytest.approx(3.0)

    unit = constant(np.tile([1.0, 0.0], (3, 1)))
    fs = sample_fermions(unit, np.zeros(4), ORDER)
    el, nu, er = fs.value[0][0], fs.value[1][0], fs.value[2][0]
    assert el.grade(0) == pytest.approx(1.0)
    assert nu.grade(0) == 0.0
    assert nu.grade(1) == pytest.approx(1.0)
    assert er.grade(0) == pytest.approx(1.0)


@pytest.mark.parametrize("points", [np.array([0.1, -0.2, 0.3, 0.4]),
                                    np.linspace(-1.0, 1.0, 20).reshape(5, 4)],
                         ids=["one_point", "points_array"])
def test_samples_carry_the_points_then_the_component_axes(points):
    """A sample's value has the points' batch shape, then its wave's
    component shape, and its gradient one more axis of 4; the gauge
    transform returns samples of its inputs' shapes."""
    rng = np.random.default_rng(24)
    samples = []
    for sampler, components in ((sample_gauge, (4, 4)), (sample_psi, (3,)),
                                (sample_fermions, (3, 2))):
        sample = sampler(_random_waves(rng, components), points, ORDER)
        shape = points.shape[:-1] + components
        assert isinstance(sample, Sample)
        assert sample.value.batch_shape == shape
        assert sample.grad.batch_shape == shape + (4,)
        samples.append(sample)
    c = Couplings(g=0.65, gp=0.35, R=1.0)
    moved = gauge_transform(_random_waves(rng, (4,)), points, c, *samples)
    assert len(moved) == 3
    for before, after in zip(samples, moved):
        assert isinstance(after, Sample)
        assert after.value.batch_shape == before.value.batch_shape
        assert after.grad.batch_shape == before.grad.batch_shape


def _random_waves(rng, shape, amplitude=0.7):
    """Complex plane waves over components `shape`, drawn one component
    after the other in row-major order."""
    draws = [(complex(rng.normal(), rng.normal()) * amplitude,
              rng.normal(size=4), rng.uniform(-3, 3))
             for _ in range(math.prod(shape))]
    amp, k, phase = (np.array(p) for p in zip(*draws))
    return PlaneWave(amp.reshape(shape), k.reshape(shape + (4,)),
                     phase.reshape(shape))


def _joined(a, b):
    """The waves of a over (n, ...) then those of b over (...), joined
    along the component axis."""
    return PlaneWave(*(np.concatenate([p, [q]]) for p, q in
                       zip(dataclasses.astuple(a), dataclasses.astuple(b))))


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
    gauge = _random_waves(rng, (4, 4))  # over (A^1, A^2, A^3, B) x mu
    psi = _random_waves(rng, (3,))
    fermions = _random_waves(rng, (3, 2))
    _same_samples(sample_gauge(gauge, points, ORDER, scale=scale),
                  [sample_gauge(gauge, x, ORDER, scale=scale) for x in points],
                  ("value", "grad"))
    _same_samples(sample_psi(psi, points, ORDER, scale=scale),
                  [sample_psi(psi, x, ORDER, scale=scale) for x in points],
                  ("value", "grad"))
    _same_samples(sample_fermions(fermions, points, ORDER, scale=scale),
                  [sample_fermions(fermions, x, ORDER, scale=scale)
                   for x in points],
                  ("value", "grad"))
    for field in (gauge, fermions):
        assert np.allclose(field.hess(points[:, None, None, :]),
                           [field.hess(x[None, None, :]) for x in points])


@pytest.mark.parametrize("with_scale", [False, True])
def test_stacked_configurations_pair_with_their_points(with_scale):
    """N configurations stacked and sampled at (N, 4) points give, in batch
    element i, configuration i sampled at point i; so does the gauge
    transform with stacked parameter fields."""
    rng = np.random.default_rng(22)
    n = 6
    points = rng.uniform(-1.0, 1.0, size=(n, 4))
    scale = Jet([[0.0, 1.0]], ORDER, 2) if with_scale else None
    gauges = [_joined(_random_waves(rng, (3, 4), 0.3), _random_waves(rng, (4,)))
              for _ in range(n)]
    psis = [_random_waves(rng, (3,), 0.3) for _ in range(n)]
    fermions = [_random_waves(rng, (3, 2)) for _ in range(n)]
    params = [_random_waves(rng, (4,)) for _ in range(n)]
    per_sample = list(zip(gauges, psis, fermions, params, points))

    gs = sample_gauge(stack_configs(gauges), points, ORDER, scale=scale)
    singles = [sample_gauge(g, x, ORDER, scale=scale) for g, *_, x in per_sample]
    _same_samples(gs, singles, ("value", "grad"))
    ps = sample_psi(stack_configs(psis), points, ORDER, scale=scale)
    _same_samples(ps, [sample_psi(p, x, ORDER, scale=scale)
                       for _, p, *_, x in per_sample], ("value", "grad"))
    fs = sample_fermions(stack_configs(fermions), points, ORDER, scale=scale)
    _same_samples(fs, [sample_fermions(f, x, ORDER, scale=scale)
                       for _, _, f, _, x in per_sample], ("value", "grad"))

    c = Couplings(g=0.65, gp=0.35, R=1.0)
    batched = gauge_transform(stack_configs(params), points, c, gs, ps, fs,
                              scale=scale)
    moved = [gauge_transform(
        e, x, c, sample_gauge(g, x, ORDER, scale=scale),
        sample_psi(p, x, ORDER, scale=scale), sample_fermions(f, x, ORDER, scale=scale),
        scale=scale) for g, p, f, e, x in per_sample]
    for k, sample in enumerate(batched):
        _same_samples(sample, [m[k] for m in moved], ("value", "grad"))


def test_stacked_configurations_broadcast_over_one_point():
    """Stacked constant backgrounds at one point: one sample per
    configuration."""
    cfgs = [constant(np.array([v, 0.0, 2.0 * v])) for v in (0.5, -1.0, 3.0)]
    ps = sample_psi(stack_configs(cfgs), np.zeros(4), ORDER)
    for i, cfg in enumerate(cfgs):
        single = sample_psi(cfg, np.zeros(4), ORDER)
        assert np.array_equal(ps.value[i].coeffs, single.value.coeffs)


def test_stacking_needs_matching_field_types():
    with pytest.raises(ValueError):  # a (4, 4) gauge wave against a (3,) one
        stack_configs([constant(np.zeros((4, 4))), constant(np.zeros(3))])
    waves = PlaneWave(np.full(3, 0.1), np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)))
    with pytest.raises(ValueError):  # a scalar phase against a (3,) one
        stack_configs([waves, constant(np.zeros(3))])


def test_numeric_sampling_collapses_grades():
    ps = sample_psi(constant(np.array([1.0, 0.0, 0.0])), np.zeros(4), ORDER,
                    jval=0.25)
    assert ps.value[0].grade(0) == pytest.approx(0.25)
    assert ps.value[0].grade(1) == 0.0


def test_sphere_embedding_constraint():
    rng = np.random.default_rng(0)
    R = 1.7
    for _ in range(30):
        draws = [(rng.normal() * 0.8, rng.normal(size=4)) for _ in range(3)]
        cfg = PlaneWave(np.array([a for a, _ in draws]),
                        np.array([k for _, k in draws]), 0.1)
        ps = sample_psi(cfg, rng.uniform(-1, 1, size=4), ORDER)
        phi = phi_from_psi(ps, R).value
        form = hermitian_form_jets(phi, phi)
        assert form.max_abs_diff(R**2) <= 1e-10


@pytest.mark.parametrize("jval", [None, 1.0, 0.1])
def test_phi_value_is_the_value_of_phi_from_psi(jval):
    """The value-only route builds the doublet by the same code, bit for bit."""
    rng = np.random.default_rng(30)
    ps = sample_psi(random_plane_wave(rng, 0.6, (3,)), rng.uniform(-1, 1, size=(8, 4)),
                    ORDER, jval)
    assert (phi_value(ps.value, 1.3).coeffs.tobytes()
            == phi_from_psi(ps, 1.3).value.coeffs.tobytes())


def test_phi_gradient_matches_chain_rule_via_jacobian():
    rng = np.random.default_rng(1)
    draws = [(rng.normal() * 0.5, rng.normal(size=4)) for _ in range(3)]
    cfg = PlaneWave(np.array([a for a, _ in draws]),
                    np.array([k for _, k in draws]), 0.3)
    x = np.array([0.2, -0.3, 0.5, 0.1])
    ps = sample_psi(cfg, x, ORDER)
    dphi = phi_from_psi(ps, 1.0).grad
    jac = phi_jacobian(ps.value, 1.0)
    for comp in range(2):
        for mu in range(4):
            chain = Jet.zero(ORDER)
            for l in range(3):
                chain = chain + jac[comp][l] * ps.grad[l][mu]
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
    mats.append(0.5j * np.eye(2))  # Y
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


def _jacobians(v):
    """d(X_a,k)/d(v_l) as jac[..., a, k, l]: the eps**1 coefficient of
    X(v + eps e_l), exact because X is a polynomial."""
    moved = epsilon_expand(
        lambda eps: generator_vector_fields(v[..., None, :] + eps * np.eye(3)),
        1, v.order)[1]  # [..., l, a, k]
    return moved.swapaxes(-3, -2).swapaxes(-2, -1)


def _bracket(a, b, v):
    """[X_a, X_b]_k = sum_l X_a,l d_l X_b,k - X_b,l d_l X_a,k."""
    x, jac = generator_vector_fields(v), _jacobians(v)
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
    """The gauge transform, taken from the group's matrices, moves the
    sphere coordinates along j X_a for the fiber generators T1, T2 and
    along X_a for T3 and Y at first order."""
    v = Jet.const(np.array([0.3, -0.2, 0.5]), ORDER)
    ps = Sample(v, Jet.const(np.zeros((3, 4)), ORDER))
    gs = sample_gauge(constant(np.zeros((4, 4))), np.zeros(4), ORDER)
    fs = sample_fermions(constant(np.zeros((3, 2))), np.zeros(4), ORDER)
    c = Couplings(g=0.65, gp=0.35, R=1.0)
    plain = generator_vector_fields(v)
    for a, grade in enumerate((1, 1, 0, 0)):
        theta = constant(np.eye(4)[a])
        action = epsilon_expand(lambda scale: gauge_transform(
            theta, np.zeros(4), c, gs, ps, fs, scale=scale)[1].value, 1)[1]
        for k in range(3):
            assert action[k].grade(grade) == pytest.approx(
                plain[a, k].grade(0), abs=1e-14
            )


def test_zero_parameter_gauge_transform_is_identity():
    rng = np.random.default_rng(5)
    c = Couplings(g=0.65, gp=0.35, R=1.0)
    # over (A^1, A^2, A^3, B) x mu
    gauge = PlaneWave(0.2, rng.normal(size=(4, 4, 4)), 0.0)
    psicfg = PlaneWave(0.2, rng.normal(size=(3, 4)), 0.0)
    x = np.array([0.1, 0.2, -0.3, 0.4])
    samples = (sample_gauge(gauge, x, ORDER), sample_psi(psicfg, x, ORDER),
               sample_fermions(_random_waves(rng, (3, 2)), x, ORDER))
    moved = gauge_transform(constant(np.zeros(4)), x, c, *samples)
    for before, after in zip(samples, moved):
        assert after.value.max_abs_diff(before.value) == 0.0
        assert after.grad.max_abs_diff(before.grad) == 0.0


def _component_law(gs, ps, theta, x, c, jval, scale):
    """The first-order transformation written out by hand, component by
    component, as a reference for the law taken from the group:
      dA^a_mu  = -(1/g) d_mu theta_a - eps_{bca} theta_b A^c_mu
      dB_mu    = -(1/g') d_mu theta_Y
      dpsi_k   = sum_a theta_a X_a(psi)_k
    over graded values, theta_1 and theta_2 at grade 1."""
    j = Jet.variable(ORDER) if jval is None else Jet.const(jval, ORDER)
    g = stack([j * scale, j * scale, scale, scale])
    xc = x[..., None, :]
    ev, dev = g * theta.value(xc), g[..., None] * theta.grad(xc)
    coupling = -1.0 / np.array([c.g, c.g, c.g, c.gp])
    shift = coupling[:, None] * dev
    hess_shift = g[..., None, None] * (coupling[:, None, None] * theta.hess(xc))
    X = generator_vector_fields(ps.value)
    dX = (_jacobians(ps.value)[..., None] * ps.grad[..., None, None, :, :]).sum(-2)
    psi = ps.value + (ev[..., None] * X).sum(-2)
    dpsi = ps.grad + (dev[..., :, None, :] * X[..., None]
                      + ev[..., None, None] * dX).sum(-3)
    b, e = [1, 2, 0], [2, 0, 1]
    a, da = gs.value[..., :3, :], gs.grad[..., :3, :, :]
    a_new = a + (shift[..., :3, :] - (ev[..., b, None] * a[..., e, :]
                                      - ev[..., e, None] * a[..., b, :]))
    da_new = da + (hess_shift[..., :3, :, :]
                   - (dev[..., b, :, None] * a[..., e, None, :]
                      + ev[..., b, None, None] * da[..., e, :, :])
                   + (dev[..., e, :, None] * a[..., b, None, :]
                      + ev[..., e, None, None] * da[..., b, :, :]))
    value = stack([*(a_new[..., k, :] for k in range(3)),
                   gs.value[..., 3, :] + shift[..., 3, :]], axis=-2)
    grad = stack([*(da_new[..., k, :, :] for k in range(3)),
                  gs.grad[..., 3, :, :] + hess_shift[..., 3, :, :]], axis=-3)
    return Sample(value, grad), Sample(psi, dpsi)


@pytest.mark.parametrize("jval", [None, 1.0, 0.1])
def test_gauge_transform_matches_the_component_law(jval):
    """The eps**1 shifts of A, dA, psi and dpsi taken from the group's
    generator matrices equal the hand-linearized component law, to 1e-15
    of the largest coefficient, at 8 points of each of 5 seeds."""
    c = Couplings(g=0.65, gp=0.35, R=1.0)
    scale = Jet([[0.0, 1.0]], ORDER, 1)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        gauge, psicfg = random_bosonic_config(rng, 0.1)
        theta = random_plane_wave(rng, 0.1, (4,))
        x = rng.uniform(-0.5, 0.5, size=(8, 4))
        gs, ps = sample_gauge(gauge, x, ORDER, jval), sample_psi(psicfg, x, ORDER, jval)
        fs = sample_fermions(constant(np.zeros((3, 2))), x, ORDER, jval)
        moved = gauge_transform(theta, x, c, gs, ps, fs, jval, scale)[:2]
        for law, got in zip(_component_law(gs, ps, theta, x, c, jval, scale), moved):
            for want, have in ((law.value, got.value), (law.grad, got.grad)):
                assert have.coeffs.shape == want.coeffs.shape
                first = want.coeffs[..., 1]
                assert np.abs(have.coeffs[..., 1] - first).max() \
                    <= 1e-15 * np.abs(first).max()
