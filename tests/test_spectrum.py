"""Coefficient extraction, mass spectrum, the cubic terms against the
exact coefficient and the even extrapolation of the contraction limit."""

import math
import tracemalloc

import numpy as np
import pytest

from ewcontract import jets
from ewcontract.cli import DEFAULT_COUPLINGS
from ewcontract.fields import (
    ConfigError,
    Couplings,
    FermionConfig,
    GaugeConfig,
    PsiConfig,
    constant,
    phi_from_psi,
    sample_fermions,
    sample_gauge,
    sample_psi,
)
from ewcontract.jets import DEFAULT_ORDER, Jet
from ewcontract.lagrangian import lagrangian_bosonic, lagrangian_fermion
from ewcontract.spectrum import (
    _fermion_mass_coefficients,
    bosonic_density_evaluator,
    epsilon_expand,
    extrapolate_even,
    gauge_mass_coefficients,
    halton_points,
    mass_spectrum,
    normative_cubic_terms,
    random_bosonic_config,
    random_plane_wave,
    transcribed_cubic_terms,
)
from ewcontract.suites import RunConfig, run_suites

ORDER = DEFAULT_ORDER
COUPLINGS = Couplings(g=0.65, gp=0.35, R=0.8, h_e=1.1)


def test_halton_points_deterministic_per_seed():
    a = halton_points(seed=3)
    b = halton_points(seed=3)
    c = halton_points(seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_halton_points_are_scipys_scrambled_halton_bits():
    """scipy stays the oracle of the scrambled sequence, not the route."""
    qmc = pytest.importorskip("scipy.stats.qmc")
    for seed in range(200):
        for count in (4, 16, 50):
            expected = (qmc.Halton(d=4, scramble=True, seed=seed).random(count)
                        - 0.5) * 2.0
            assert np.array_equal(halton_points(count, seed), expected), \
                (seed, count)


def test_random_plane_waves_are_drawn_one_component_at_a_time():
    """Component (k, mu) of a (3, 4) draw is the wave that the (4k + mu)-th
    of twelve single draws from the same seed gives."""
    waves = random_plane_wave(np.random.default_rng(7), 0.3, (3, 4))
    assert waves.amplitude.shape == (3, 4)
    assert waves.wavevector.shape == (3, 4, 4)
    assert waves.phase.shape == (3, 4)
    rng = np.random.default_rng(7)
    for k in range(3):
        for mu in range(4):
            amplitude = rng.normal() * 0.3
            wavevector = rng.normal(size=4) * 0.6
            phase = rng.uniform(-math.pi, math.pi)
            assert waves.amplitude[k, mu] == amplitude
            assert np.array_equal(waves.wavevector[k, mu], wavevector)
            assert waves.phase[k, mu] == phase


def _scalar_plane_wave(rng, amplitude, shape):
    """Waves drawn one numpy call at a time: per component five normals,
    then rng.uniform(-pi, pi) for the phase."""
    draws = [(rng.normal(size=5), rng.uniform(-math.pi, math.pi))
             for _ in range(math.prod(shape))]
    normals, phase = (np.array(p) for p in zip(*draws))
    return (normals[:, 0].reshape(shape) * amplitude,
            normals[:, 1:].reshape(shape + (4,)) * 0.6, phase.reshape(shape))


def test_plane_waves_equal_scalar_draws_bit_for_bit():
    """Same bytes in every array and the same PCG64 state afterwards."""
    for seed in range(200):
        for shape in [(), (2,), (3,), (4,), (3, 4)]:
            rng, reference = (np.random.default_rng(seed) for _ in range(2))
            waves = random_plane_wave(rng, 0.3, shape)
            expected = _scalar_plane_wave(reference, 0.3, shape)
            for got, want in zip((waves.amplitude, waves.wavevector,
                                  waves.phase), expected):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (seed, shape)
            assert rng.bit_generator.state == reference.bit_generator.state


def test_epsilon_expand_recovers_known_polynomial():
    j = Jet.variable(ORDER)

    def evaluator(eps):
        return (
            Jet.const(0.5, ORDER)
            + eps * 2.0 * j
            + (eps * eps) * (3.0 * (j * j) + 1.0)
            + (eps * eps * eps) * Jet.const(-0.25, ORDER)
        )

    expansion = epsilon_expand(evaluator, 3)
    assert expansion[0].grade(0) == pytest.approx(0.5, abs=1e-15)
    assert expansion[1].grade(1) == pytest.approx(2.0, abs=1e-15)
    assert expansion[2].grade(0) == pytest.approx(1.0, abs=1e-15)
    assert expansion[2].grade(2) == pytest.approx(3.0, abs=1e-15)
    assert expansion[3].grade(0) == pytest.approx(-0.25, abs=1e-15)


def _binomial(power, k):
    out = 1.0
    for i in range(k):
        out *= (power - i) / (i + 1)
    return out


@pytest.mark.parametrize("power", [-0.5, -1.0])
def test_epsilon_expand_recovers_taylor_coefficients_of_rational_powers(power):
    """(1 + eps j + eps^2) ** power through inv_sqrt and inv, against the
    double binomial expansion of (1 + w) ** power, w = eps j + eps^2."""
    n = 6
    j = Jet.variable(ORDER)

    def evaluator(eps):
        base = 1.0 + eps * j + eps * eps
        return base.inv_sqrt() if power == -0.5 else base.inv()

    expected = np.zeros((ORDER + 1, n + 1))
    for k in range(n + 1):
        for m in range(k + 1):
            if m <= ORDER and 2 * k - m <= n:
                expected[m, 2 * k - m] += _binomial(power, k) * math.comb(k, m)
    expansion = epsilon_expand(evaluator, n)
    for p in range(n + 1):
        for m in range(ORDER + 1):
            assert abs(expansion[p].grade(m) - expected[m, p]) <= 1e-14


def test_epsilon_expand_order_bounds():
    evaluator = lambda eps: Jet.const(eps, ORDER)
    with pytest.raises(ConfigError):
        epsilon_expand(evaluator, 7)
    with pytest.raises(ConfigError):
        epsilon_expand(evaluator, -1)


def test_quadratic_coefficient_matches_diagonalized_form():
    gates = run_suites(RunConfig(COUPLINGS, suites=("quadratic",)))[
        "quadratic"].details
    assert gates["quadratic_rel_diff"] <= 1e-12
    assert gates["tadpole"] <= 1e-12


def test_expand_shaped_evaluation_stays_small(monkeypatch):
    """One evaluation of the expand command's shape (seed 0, n 6, order 8,
    16 points) takes a few dozen jets and products, because component
    indices are batch axes of a few jets, and never holds the whole
    (16, 3, 4, 4) field strength: that alone peaks at about 5.4 MiB, the
    per-direction contraction at about 3 MiB. Its products gather about
    50,000 coefficients, because every sample is eps times a value and
    fiber fields start at grade 1; dense products would gather 6,168,960."""
    gauge, psi = random_bosonic_config(np.random.default_rng(0))
    evaluator = bosonic_density_evaluator(
        gauge, psi, Couplings(**DEFAULT_COUPLINGS), halton_points(seed=0), 8)
    epsilon_expand(evaluator, 6, 8)  # caches every product plan first
    counts = {"jets": 0, "products": 0, "gathered": 0}
    init, mul, gather = Jet.__init__, Jet.__mul__, jets._gather

    def counted_init(jet, *args, **kwargs):
        counts["jets"] += 1
        init(jet, *args, **kwargs)

    def counted_mul(jet, other):
        counts["products"] += 1
        return mul(jet, other)

    def counted_gather(coeffs, index):
        gathered = gather(coeffs, index)
        counts["gathered"] += gathered.size
        return gathered

    monkeypatch.setattr(Jet, "__init__", counted_init)
    monkeypatch.setattr(Jet, "__mul__", counted_mul)
    monkeypatch.setattr(Jet, "__rmul__", counted_mul)
    monkeypatch.setattr(jets, "_gather", counted_gather)
    tracemalloc.start()
    try:
        epsilon_expand(evaluator, 6, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts["products"] <= 60
    assert counts["jets"] <= 200
    assert counts["gathered"] <= 100_000
    assert peak <= 4 * 2**20


def test_mass_spectrum_closed_formulas():
    rng = np.random.default_rng(1)
    for _ in range(5):
        c = Couplings(
            g=float(rng.uniform(0.3, 1.2)),
            gp=float(rng.uniform(0.2, 0.8)),
            R=float(rng.uniform(0.4, 2.0)),
            h_e=float(rng.uniform(0.5, 2.5)),
        )
        rep = mass_spectrum(c)
        assert rep.m_w == pytest.approx(c.R * c.g / 2.0, rel=1e-12)
        assert rep.m_z == pytest.approx(c.R * c.gz / 2.0, rel=1e-12)
        assert rep.m_a <= 1e-12
        assert rep.weinberg_cos == pytest.approx(c.g / c.gz, abs=1e-12)
        assert rep.m_e == pytest.approx(c.h_e * c.R, rel=1e-12)
        assert rep.nu_mass_coefficient == 0.0


@pytest.mark.parametrize("jval", [None, 0.1])
def test_batched_gauge_mass_coefficients_equal_one_background_at_a_time(jval):
    """One evaluation over the stacked W, Z and A backgrounds gives each
    background's coefficients bit for bit, as the evaluation of that
    background alone at one point does."""
    c = COUPLINGS
    backgrounds = np.array([[1.0, 0.0, 0.0, 0.0],
                            [0.0, 0.0, c.g / c.gz, c.gp / c.gz],
                            [0.0, 0.0, c.gp / c.gz, -c.g / c.gz]])
    batch = gauge_mass_coefficients(backgrounds, c, ORDER, jval)
    assert batch.batch_shape == (3,)
    x = np.zeros(4)
    for i, background in enumerate(backgrounds):
        A = np.zeros((3, 4))
        A[:, 0] = background[:3]
        gauge = GaugeConfig(constant(A), constant(np.array([background[3], 0, 0, 0])))

        def evaluate(scale):
            return lagrangian_bosonic(sample_gauge(gauge, x, ORDER, jval, scale),
                                      sample_psi(PsiConfig.zero(), x, ORDER, jval),
                                      c)

        alone = epsilon_expand(evaluate, 2, ORDER)[2]
        assert np.array_equal(batch.coeffs[i], alone.coeffs)


def test_batched_fermion_mass_coefficients_equal_one_background_at_a_time():
    c = COUPLINGS
    batch = _fermion_mass_coefficients(c, ORDER)
    zero, unit = constant(np.zeros(2)), constant(np.array([1.0, 0.0]))
    x = np.zeros(4)
    gs = sample_gauge(GaugeConfig.zero(), x, ORDER)
    phi, _ = phi_from_psi(sample_psi(PsiConfig.zero(), x, ORDER), c.R)
    for i, cfg in enumerate((FermionConfig(unit, zero, unit),
                             FermionConfig(zero, unit, zero))):
        alone = epsilon_expand(
            lambda scale: lagrangian_fermion(
                sample_fermions(cfg, x, ORDER, scale=scale), phi, gs, c),
            2, ORDER)[2]
        assert np.array_equal(batch.coeffs[i], alone.coeffs)


def test_reference_coupling_point():
    rep = mass_spectrum(Couplings(g=0.65, gp=0.35, R=0.5, h_e=2.0))
    assert rep.m_w == pytest.approx(0.1625, abs=1e-12)
    assert rep.m_e == pytest.approx(1.0, abs=1e-12)


def _cubic(seed, term_fn):
    """The exact eps^3 coefficient, the point-averaged terms of term_fn,
    their sum and its difference from the exact coefficient relative to
    grade 2, for random_bosonic_config(default_rng(seed), amplitude=0.04)
    at COUPLINGS and Halton seed `seed`."""
    gauge, psi = random_bosonic_config(np.random.default_rng(seed), amplitude=0.04)
    points = halton_points(seed=seed)
    exact = epsilon_expand(
        bosonic_density_evaluator(gauge, psi, COUPLINGS, points), 3)[3]
    terms = {name: t.mean() for name, t in term_fn(
        sample_gauge(gauge, points, ORDER), sample_psi(psi, points, ORDER),
        COUPLINGS).items()}
    total = sum(terms.values(), Jet.zero(ORDER))
    scale = max(abs(exact.grade(2)), abs(total.grade(2)))
    return terms, total, exact.max_abs_diff(total) / scale


def test_cubic_normative_form_matches_exact():
    terms, _, rel_diff = _cubic(4, normative_cubic_terms)
    assert rel_diff <= 1e-11
    assert set(terms) >= {
        "A3_ww_neutral",
        "P3_wplus_block",
        "P3_z_block",
    }


#: the literal transcription's point-averaged grade-2 values, per term and
#: in total, and its rel_diff against the exact coefficient, for
#: random_bosonic_config(default_rng(seed), amplitude=0.04) at COUPLINGS
#: and Halton seed `seed`; pinned so an index slip in the transcription
#: (or in its b_sign=-1 curls) changes a value the report prints
LITERAL_GOLDEN = {
    5: (-4.6393553868313966e-05, 0.6487475010637571, {
        "A3_ww_neutral": 0.0001732175181081355,
        "A3_wcurl_dpsi_neutral": -7.421533673184975e-05,
        "A3_ww_dpsi3": -0.00015504723112293148,
        "A3_wcurl_dpsi_dpsi3": 1.0393306482132083e-05,
        "A3_neutral_curl_block": 3.760196866664782e-07,
        "P3_wplus_block": -7.59326812615788e-07 - 2.000771793447555e-06j,
        "P3_wminus_block": -7.59326812615788e-07 + 2.000771793447555e-06j,
        "P3_z_block": 4.0082333476478063e-07,
    }),
    11: (2.9014149289913727e-06, 0.15204104825219703, {
        "A3_ww_neutral": -2.58211521016477e-05,
        "A3_wcurl_dpsi_neutral": 2.164119235063582e-05,
        "A3_ww_dpsi3": -1.3775072688836403e-06,
        "A3_wcurl_dpsi_dpsi3": -1.236957874595546e-06,
        "A3_neutral_curl_block": 7.800359464119896e-06,
        "P3_wplus_block": 1.0552065511869978e-06 - 4.748981435237265e-08j,
        "P3_wminus_block": 1.0552065511869978e-06 + 4.748981435237265e-08j,
        "P3_z_block": -2.1493274301145485e-07,
    }),
    23: (-2.2989987339058313e-05, 1.6700818674407654, {
        "A3_ww_neutral": -2.4019644219964197e-05,
        "A3_wcurl_dpsi_neutral": -5.869846532233719e-06,
        "A3_ww_dpsi3": -6.934980752587914e-06,
        "A3_wcurl_dpsi_dpsi3": 6.925517643497811e-06,
        "A3_neutral_curl_block": 6.311202740101151e-06,
        "P3_wplus_block": -5.944322741761025e-07 - 4.895754126267065e-06j,
        "P3_wminus_block": -5.944322741761025e-07 + 4.895754126267065e-06j,
        "P3_z_block": 1.7866283304807575e-06,
    }),
}


@pytest.mark.parametrize("seed", sorted(LITERAL_GOLDEN))
def test_cubic_literal_transcription_values_are_pinned(seed):
    total, rel_diff, terms = LITERAL_GOLDEN[seed]
    literal, literal_total, literal_rel_diff = _cubic(seed, transcribed_cubic_terms)
    assert set(literal) == set(terms)
    for name, want in terms.items():
        got = literal[name].grade(2)
        assert abs(got - want) <= 1e-12 * abs(want), name
    assert abs(literal_total.grade(2) - total) <= 1e-12 * abs(total)
    assert abs(literal_rel_diff - rel_diff) <= 1e-12 * rel_diff


def test_extrapolation_exact_for_even_quartics():
    f = lambda t: 1.5 - 0.3 * t**2 + 0.05 * t**4
    a0, a2 = extrapolate_even([f(t) for t in (0.1, 0.01, 0.001)])
    assert a0 == pytest.approx(1.5, abs=1e-12)
    assert a2 == pytest.approx(-0.3, abs=1e-8)
