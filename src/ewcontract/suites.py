"""Named verification suites over the algebra, group, Lagrangian and
spectrum layers.

Each suite is a pure function from a RunConfig to a SuiteResult; the
registry maps stable suite names to these functions so the CLI and the
test harness agree on what "the algebra suite" means. A suite computes
each of its gates once, from the building blocks of the lower layers,
and names it once: _result takes the gates as (residual, tolerance)
pairs by name, and the report's details hold each gate's residual under
its name plus the suite's data, the values it reports that are not gates.
TOLERANCES holds every gate's tolerance, which no input changes;
SAMPLE_COUNTS holds every sampled check's default size, and RunConfig can
override any of them and rejects an override that names no default or
has a bad value.

A suite draws from its own streams (_streams), one per slot. A sampled
check draws its samples as blocks, CONFIG_CHUNK at a time, and
_sampled_max evaluates each over a leading batch axis; its residual is the
maximum over every sample. Sample i is row i of every block, so a count
of m draws the first m samples of any larger count, whatever the chunk.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Sequence, Tuple

import numpy as np

from .fields import (
    ConfigError,
    Couplings,
    PlaneWave,
    constant,
    gauge_transform,
    hermitian_form_jets,
    phi_from_psi,
    phi_jacobian,
    sample_fermions,
    sample_gauge,
    sample_psi,
    stack_configs,
)
from .group import (
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
from .jets import DEFAULT_ORDER, Jet, JetMatrix2, jparam, stack
from .lagrangian import (
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
    yukawa_expanded_form,
    yukawa_matrix_form,
)
from .spectrum import (
    LIMIT_T_VALUES,
    background_coefficients,
    bosonic_density_evaluator,
    closed_masses,
    epsilon_expand,
    extrapolate_even,
    gauge_masses,
    halton_points,
    lepton_masses,
    normative_cubic_terms,
    quadratic_form,
    random_bosonic_config,
    random_plane_wave,
)

SCHEMA_VERSION = "1.2"

#: tolerance of every gate, under the key its suite reads (one line per
#: suite); fermion_identity bounds both sampled fermion checks
TOLERANCES: Dict[str, float] = {
    "algebra": 1.0e-12,
    "group": 1.0e-12,
    "invariance_form": 1.0e-12, "invariance_first_order": 1.0e-12,
    "coordinate_sphere": 1.0e-12, "coordinate_equivalence": 1.0e-12,
    "quadratic_form": 1.0e-12, "mass_rel": 1.0e-12, "mass_zero": 1.0e-12,
    "cubic_grade0": 1.0e-12, "cubic_match": 1.0e-11,
    "fermion_identity": 1.0e-12, "fermion_mass": 1.0e-12,
    "limit": 1.0e-7,
}

#: default size of every sampled check, under the config key that
#: overrides it (one line per suite); fermion_identity sizes both sampled
#: fermion checks
SAMPLE_COUNTS: Dict[str, int] = {
    "group": 1000,
    "invariance_form": 100, "invariance_gauge": 20,
    "coordinate_sphere": 100, "coordinate_equivalence": 50,
    "mass_sets": 10,
    "fermion_identity": 50,
}

#: largest accepted sample count: the time of a sampled check grows
#: linearly with its count
MAX_SAMPLE_COUNT = 10000

#: samples a sampled check evaluates at once: the one bound on its memory,
#: which does not grow with its sample count. At 10,000 samples (2-vCPU
#: host) `invariance` peaked at 72 MiB, `coordinate` at 46 and `fermion`
#: at 41 with chunks of 500; with dense coefficient arrays `invariance`
#: peaked at 116 MiB with chunks of 1,000, 76 with 500 and 57 with 250,
#: and 250 ran `coordinate` about 6 % slower than 500
CONFIG_CHUNK = 500


def check_overrides(overrides) -> None:
    """Raise ConfigError for a bad key or value of sample-count overrides."""
    if not isinstance(overrides, dict):
        raise ConfigError("sample_counts must be an object")
    for key, value in overrides.items():
        if key not in SAMPLE_COUNTS:
            raise ConfigError(f"unknown sample_counts key {key!r}")
        if isinstance(value, bool) or not isinstance(value, int) \
                or not 1 <= value <= MAX_SAMPLE_COUNT:
            raise ConfigError(f"sample count {key!r} must be an integer "
                              f"between 1 and {MAX_SAMPLE_COUNT}, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a suite run depends on besides TOLERANCES, which no
    input changes; the seed is echoed into every report so runs stay
    reproducible."""

    couplings: Couplings
    order: int = DEFAULT_ORDER
    seed: int = 0
    suites: Tuple[str, ...] = ()
    sample_counts: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        check_overrides(self.sample_counts)

    def samples(self, key: str) -> int:
        return self.sample_counts.get(key, SAMPLE_COUNTS[key])


@dataclass
class SuiteResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    details: dict


def _result(name: str, gates: Dict[str, Tuple[float, float]],
            data: "dict | None" = None) -> SuiteResult:
    """A suite passes when every gate, a (residual, tolerance) pair under
    its name, holds; it reports its largest residual against its largest
    tolerance, NaN when any gate's residual is NaN (np.max propagates it,
    where Python's max skips a NaN that follows a number). Its details are
    each gate's residual under the gate's name, then data: the values it
    reports that are not gates."""
    checks = gates.values()
    return SuiteResult(
        name,
        all(bool(r <= t) for r, t in checks),
        float(np.max([r for r, _ in checks])),
        float(max(t for _, t in checks)),
        {**{gate: r for gate, (r, _) in gates.items()}, **(data or {})},
    )


def _rel_diff(x: complex, y: complex) -> float:
    """|x - y| relative to the larger of |x| and |y|."""
    return abs(x - y) / max(abs(x), abs(y), 1.0e-30)


def _low_grade_diff(x: Jet, y: Jet) -> float:
    """Largest coefficient difference on grades 0 and 1 (the grades that
    survive nilpotent arithmetic), over every batch element."""
    return float(np.max(np.abs(x.coeffs[..., :2, 0] - y.coeffs[..., :2, 0])))


def _sample_size(x: Jet) -> np.ndarray:
    """Largest coefficient magnitude of each sample (leading axis)."""
    return np.abs(x.coeffs).reshape(len(x.coeffs), -1).max(axis=1)


def _odd_grades(x: Jet) -> np.ndarray:
    """Largest coefficient at odd grades of j of each batch element."""
    return np.abs(x.coeffs[..., 1::2, :]).max(axis=(-2, -1))


def _streams(cfg: RunConfig, suite: str) -> Iterator[np.random.Generator]:
    """The suite's random streams in the order it takes them: stream k is
    SeedSequence([seed, i, k]), i the suite's place in REGISTRY, so no two
    seeds, suites or streams share one (NumPy's keyed parallel streams)."""
    return (np.random.default_rng([cfg.seed, list(REGISTRY).index(suite), k])
            for k in itertools.count())


def _draws(streams: Iterator[np.random.Generator], *slots) -> Callable[[int], tuple]:
    """draw(n) for _sampled_max: each slot is a function of the next stream
    and n that draws the slot's next n samples as one block."""
    pairs = list(zip(slots, streams))
    return lambda n: tuple(slot(rng, n) for slot, rng in pairs)


def _wave(amplitude: float, shape: Tuple[int, ...]):
    """A slot of random waves over shape."""
    return lambda rng, n: random_plane_wave(rng, amplitude, (n, *shape))


def _points(rng: np.random.Generator, n: int) -> np.ndarray:
    """A slot of spacetime points in [-0.5, 0.5]^4."""
    return rng.uniform(-0.5, 0.5, size=(n, 4))


def _spinors(rng: np.random.Generator, n: int) -> PlaneWave:
    """A slot of complex spinors over (e_l, nu_l, e_r), (n, 3, 2): a wave plus
    i times a second's amplitude (real ones lose the i psi_1, i psi_3 terms)."""
    waves = random_plane_wave(rng, 1.0, (n, 3, 2, 2))
    return PlaneWave(waves.amplitude[..., 0] + 1j * waves.amplitude[..., 1],
                     waves.wavevector[..., 0, :], waves.phase[..., 0])


def _sampled_max(count: int, draw: Callable[[int], Sequence],
                 evaluate: Callable[..., Sequence[np.ndarray]]) -> list[float]:
    """Each gate's largest residual over `count` samples, drawn and
    evaluated CONFIG_CHUNK at a time: draw(n) returns the next n samples
    of every slot as blocks, sample i in row i, and evaluate(*slots) one
    per-sample residual array per gate; a NaN residual fails its gate."""
    maxima = [[np.max(r) for r in evaluate(*draw(min(CONFIG_CHUNK, count - start)))]
              for start in range(0, count, CONFIG_CHUNK)]
    return [float(r) for r in np.max(maxima, axis=0)]


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


def suite_algebra(cfg: RunConfig) -> SuiteResult:
    """Closed-form commutator table, grade by grade, plus the nilpotent
    collapse of [T1, T2]."""
    order = cfg.order
    tol = TOLERANCES["algebra"]
    gens = {k: generator(k, order).matrix for k in (1, 2, 3)}
    j = Jet.variable(order)
    zero = JetMatrix2.zero(order)
    expected = {(1, 2): gens[3] * -(j * j), (2, 3): -gens[1], (3, 1): -gens[2]}
    table_resid = 0.0
    for k in (1, 2, 3):
        table_resid = max(table_resid, gens[k].commutator(gens[k]).max_abs_diff(zero))
    for (k, l), rhs in expected.items():
        comm = gens[k].commutator(gens[l])
        table_resid = max(table_resid, comm.max_abs_diff(rhs))
        flipped = gens[l].commutator(gens[k])
        table_resid = max(table_resid, flipped.max_abs_diff(-rhs))
    nilpotent_resid = _low_grade_diff(gens[1].commutator(gens[2]).jet, zero.jet)
    return _result("algebra", {"commutator_table": (table_resid, tol),
                               "nilpotent_t1_t2": (nilpotent_resid, tol)})


# ---------------------------------------------------------------------------
# group
# ---------------------------------------------------------------------------


def suite_group(cfg: RunConfig) -> SuiteResult:
    """Unitarity and unimodularity of random products, and the closed
    exponential forms against the series exponential."""
    order = cfg.order
    tol = TOLERANCES["group"]
    count = cfg.samples("group")
    factors, exponents = itertools.islice(_streams(cfg, "group"), 2)
    identity = JetMatrix2.identity(order).jet

    def products(ks: np.ndarray, angles: np.ndarray):
        u = group_product(ks, angles, order)
        return (_sample_size((u * u.dagger()).jet - identity),
                _sample_size(u.det() - 1.0))

    unitarity, det_resid = _sampled_max(
        count, lambda n: random_factors(factors, (n,)), products)

    samples = exponents.uniform(-2.0, 2.0, size=(20, 3))
    samples[np.abs(samples[:, 2]) < 0.1, 2] = 0.5  # the closed form needs a3 != 0
    a = samples.T
    series = exp_series(*a, order=order)
    closed_resid = _low_grade_diff(exp_closed_nilpotent(*a, order=order).jet,
                                   series.jet)
    su2 = np.array([exp_closed_su2(*sample) for sample in samples])
    series_at_one = exp_series(*a, order=order, jval=1.0)
    su2_resid = float(np.max(np.abs(series_at_one.jet.grade(0) - su2)))
    closed_resid = max(closed_resid, su2_resid)

    # exp(angle T_k(j)) along each generator, on the same angles
    along = np.moveaxis(samples[..., None] * np.eye(3), -1, 0)
    subgroup_resid = max(one_param(np.arange(1, 4), samples, order, jval).max_abs_diff(
        exp_series(*along, order=order, jval=jval)) for jval in (None, 1.0))
    # charge Q = Y - T3: exp(gamma Q) = exp(gamma Y) exp(-gamma T3), and
    # exp(gamma Q) leaves the vacuum direction (1, 0) where it is
    charge = u1em_element(a[2], order)
    charge_resid = charge.max_abs_diff(
        u1_element(a[2], order) * one_param(3, -a[2], order))
    vacuum = Jet.const(np.array([1.0, 0.0]), order)
    stabilizer_resid = charge.apply(vacuum).max_abs_diff(vacuum)

    return _result("group", {
        "unitarity": (unitarity, tol),
        "determinant": (det_resid, tol),
        "closed_exponentials": (closed_resid, tol),
        "one_parameter_subgroups": (subgroup_resid, tol),
        "electromagnetic_charge": (charge_resid, tol),
        "vacuum_stabilizer": (stabilizer_resid, tol),
    }, {"product_samples": count})


# ---------------------------------------------------------------------------
# invariance (hermitian form and Lagrangian gauge variation)
# ---------------------------------------------------------------------------


def suite_invariance(cfg: RunConfig) -> SuiteResult:
    """Hermitian-form preservation under random group elements, and the
    vanishing of the Lagrangian's first-order gauge variation relative to
    the unvaried density, at the grades each contraction regime reads.

    One evaluation expands the gauge, sphere and lepton densities, stacked
    on a trailing sector axis, under fields.gauge_transform to eps**1: the
    gauge and sphere sectors' variations are read summed, the lepton
    sector's alone, and the gauge sector's eps**0 coefficient against the
    trace form."""
    order = cfg.order
    tol_form = TOLERANCES["invariance_form"]
    tol_first = TOLERANCES["invariance_first_order"]
    streams = _streams(cfg, "invariance")
    phis, factors = next(streams), next(streams)

    def form(phi, ks, angles):
        d = graded_doublet(phi[:, 0], phi[:, 1], order)
        reference = hermitian_form_jets(d, d)
        moved = (group_product(ks[:, e], angles[:, e], order, jval).apply(d)
                 for e, jval in enumerate((None, 1.0)))
        change = np.maximum(*(_sample_size(hermitian_form_jets(m, m) - reference)
                              for m in moved))
        return (change / _sample_size(reference),)

    form_resid, = _sampled_max(cfg.samples("invariance_form"), lambda n: (
        phis.normal(size=(n, 4)).view(complex), *random_factors(factors, (n, 2))), form)

    c = cfg.couplings
    configs = cfg.samples("invariance_gauge")

    def gauge_variation(gauge, psicfg, theta, fcfg, x):
        worst, leptons, trace = [], [], []
        for jval, grades in ((1.0, (0,)), (None, (0, 1)), (0.1, (0,))):
            gs = sample_gauge(gauge, x, order, jval)
            ps = sample_psi(psicfg, x, order, jval)
            fs = sample_fermions(fcfg, x, order, jval)

            def sectors(scale: Jet) -> Jet:
                """The gauge, sphere and lepton densities on a trailing axis;
                eps**0: unvaried, eps**1: their variations."""
                gs2, ps2, fs2 = gauge_transform(theta, x, c, gs, ps, fs, jval, scale)
                phi = phi_from_psi(ps2, c.R).value
                return stack([lagrangian_gauge(gs2, c), lagrangian_psi(ps2, gs2, c),
                              lagrangian_fermion(fs2, phi, gs2, c)])

            def relative(variation: Jet, unvaried: Jet) -> np.ndarray:
                """Per configuration, over unvaried sector sizes (which can cancel)."""
                size = np.max([abs(unvaried.grade(n)).sum(-1) for n in grades], axis=0)
                change = np.max([abs(variation.grade(n)) for n in grades], axis=0)
                return change / np.maximum(size, 1.0e-30)

            unvaried, variations = epsilon_expand(sectors, 1, order)
            worst.append(relative(variations[..., :2].sum(-1), unvaried[..., :2]))
            leptons.append(relative(variations[..., 2], unvaried[..., 2:]))
            gauge_density = unvaried[..., 0]
            trace.append(_sample_size(gauge_density - lagrangian_gauge_trace(gs, c))
                         / _sample_size(gauge_density))
        return tuple(np.max(gate, axis=0) for gate in (worst, leptons, trace))

    first_order, lepton_first_order, trace_resid = _sampled_max(configs, _draws(
        streams, _wave(0.1, (4, 4)), _wave(0.1, (3,)), _wave(0.1, (4,)), _spinors,
        _points), gauge_variation)

    return _result("invariance", {
        "hermitian_form_residual": (form_resid, tol_form),
        "first_order_variation": (first_order, tol_first),
        "lepton_first_order": (lepton_first_order, tol_first),
        "gauge_trace_form": (trace_resid, tol_form),
    }, {
        "hermitian_form_tolerance": tol_form,
        "first_order_tolerance": tol_first,
        "gauge_configs": configs,
    })


# ---------------------------------------------------------------------------
# coordinate (sphere constraint + doublet/intrinsic equivalence)
# ---------------------------------------------------------------------------


def suite_coordinate(cfg: RunConfig) -> SuiteResult:
    """The embedded doublet sits on the radius-R sphere, and the doublet
    and intrinsic-coordinate matter densities agree grade-wise."""
    order = cfg.order
    tol_sphere = TOLERANCES["coordinate_sphere"]
    tol_equiv = TOLERANCES["coordinate_equivalence"]
    streams = _streams(cfg, "coordinate")
    c = cfg.couplings

    def sphere(psicfg, x):
        phi = phi_from_psi(sample_psi(psicfg, x, order), c.R).value
        return (_sample_size(hermitian_form_jets(phi, phi) - c.R**2),)

    sphere_resid, = _sampled_max(cfg.samples("coordinate_sphere"),
                                 _draws(streams, _wave(0.6, (3,)), _points), sphere)

    def equivalence(gauge, psicfg, x):
        gs = sample_gauge(gauge, x, order)
        ps = sample_psi(psicfg, x, order)
        phi = phi_from_psi(ps, c.R)
        doublet = lagrangian_phi(phi, gs, c)
        intrinsic = lagrangian_psi(ps, gs, c)
        scale = np.maximum(_sample_size(doublet), _sample_size(intrinsic)).clip(1e-30)
        d = covariant_derivative_phi(phi, gs, c)
        chain = (phi_jacobian(ps.value, c.R)[..., None]
                 * covariant_derivative_psi(ps, gs, c)[..., None, :, :]).sum(-2)
        d_scale = _sample_size(d).clip(1e-30)
        return (_sample_size(doublet - intrinsic) / scale,
                _sample_size(intrinsic - lagrangian_psi_closed(ps, gs, c)) / scale,
                _sample_size(d - covariant_derivative_phi_matrix(phi, gs, c))
                / d_scale,
                _sample_size(d - chain) / d_scale)

    equiv_resid, displayed_resid, matrix_resid, chain_resid = _sampled_max(
        cfg.samples("coordinate_equivalence"),
        _draws(streams, _wave(0.3, (4, 4)), _wave(0.3, (3,)), _points), equivalence)

    return _result("coordinate", {
        "sphere_constraint": (sphere_resid, tol_sphere),
        "density_equivalence": (equiv_resid, tol_equiv),
        "displayed_forms": (displayed_resid, tol_equiv),
        "matrix_covariant_derivative": (matrix_resid, tol_equiv),
        "chain_rule": (chain_resid, tol_equiv),
    })


# ---------------------------------------------------------------------------
# quadratic (mass spectrum + base/fiber split)
# ---------------------------------------------------------------------------


def suite_quadratic(cfg: RunConfig) -> SuiteResult:
    """The point-averaged eps^2 coefficient vs the diagonalized quadratic
    form at grades 0 and 2 and a vanishing eps^1 (tadpole) coefficient,
    extracted masses vs the closed formulas, base-sector independence
    from the fiber gauge fields, and no odd grade of j in the eps^1 and
    eps^2 coefficients (fiber fields enter in pairs)."""
    order = cfg.order
    tol_quad = TOLERANCES["quadratic_form"]
    tol_mass = TOLERANCES["mass_rel"]
    tol_zero = TOLERANCES["mass_zero"]
    streams = _streams(cfg, "quadratic")
    c = cfg.couplings

    gauge, psicfg = random_bosonic_config(next(streams))
    points = halton_points(seed=cfg.seed)
    expansion = epsilon_expand(
        bosonic_density_evaluator(gauge, psicfg, c, points, order), 2, order)
    independent = quadratic_form(sample_gauge(gauge, points, order),
                                 sample_psi(psicfg, points, order), c).mean()
    quad_resid = max(_rel_diff(expansion[2].grade(n), independent.grade(n))
                     for n in (0, 2))
    tadpole = abs(expansion[1].grade(0)) + abs(expansion[1].grade(2))
    odd = float(max(_odd_grades(e) for e in expansion[1:]))

    mass_resid = zero_resid = 0.0
    # one row (g, gp, R, h_e) per mass set
    for row in next(streams).uniform((0.3, 0.2, 0.4, 0.5), (1.2, 0.8, 2.0, 2.5),
                                     size=(cfg.samples("mass_sets"), 4)):
        ci = Couplings(*map(float, row))
        m_w, m_z, m_a = gauge_masses(ci)
        closed = closed_masses(ci)
        mass_resid = max(mass_resid, *(abs(m - closed[k]) / abs(closed[k])
                                       for m, k in ((m_w, "m_w"), (m_z, "m_z"))))
        zero_resid = max(zero_resid, m_a, abs(m_w / m_z - closed["weinberg_cos"]))

    # the fiber fields A^1, A^2 must not feed the grade-0 (base) density:
    # the configuration and its copy with A^1, A^2 tripled at 4 points, as
    # a (4 points, 2 configurations) batch
    points = next(streams).uniform(-0.5, 0.5, size=(4, 4))[:, None]
    pair = stack_configs([gauge, gauge.scaled([[3.0], [3.0], [1.0], [1.0]])])
    grade0 = lagrangian_bosonic(sample_gauge(pair, points, order),
                                sample_psi(psicfg, points, order), c).grade(0)
    base_resid = float(np.max(np.abs(grade0[:, 0] - grade0[:, 1])))

    return _result("quadratic", {
        "quadratic_rel_diff": (quad_resid, tol_quad),
        "tadpole": (tadpole, tol_zero),
        "mass_rel_error": (mass_resid, tol_mass),
        "massless_residual": (zero_resid, tol_zero),
        "base_fiber_leak": (base_resid, 0.0),
        "odd_grades": (odd, 0.0),
    })


# ---------------------------------------------------------------------------
# cubic
# ---------------------------------------------------------------------------


def suite_cubic(cfg: RunConfig) -> SuiteResult:
    """The point-averaged eps^3 coefficient: its base part must vanish and
    its closed form rederived in this package's conventions must match it,
    relative to the larger grade 2 of the two."""
    order = cfg.order
    tol_zero = TOLERANCES["cubic_grade0"]
    tol_match = TOLERANCES["cubic_match"]
    c = cfg.couplings
    gauge, psicfg = random_bosonic_config(next(_streams(cfg, "cubic")), amplitude=0.04)
    points = halton_points(seed=cfg.seed)
    exact = epsilon_expand(
        bosonic_density_evaluator(gauge, psicfg, c, points, order), 3, order)[3]
    terms = normative_cubic_terms(sample_gauge(gauge, points, order),
                                  sample_psi(psicfg, points, order), c)
    total = sum((t.mean() for t in terms.values()), Jet.zero(order))
    scale = max(abs(exact.grade(2)), abs(total.grade(2)), 1.0e-30)
    return _result("cubic", {
        "exact_grade0": (abs(exact.grade(0)), tol_zero),
        "normative_rel_diff": (exact.max_abs_diff(total) / scale, tol_match),
    })


# ---------------------------------------------------------------------------
# fermion
# ---------------------------------------------------------------------------


def _grade0_yukawa_oracle(psi3: np.ndarray, el: np.ndarray, er: np.ndarray,
                          h_e: float, R: float) -> np.ndarray:
    """Base part of the Yukawa terms in plain complex arithmetic (only the
    third sphere coordinate and the charged leptons survive at grade 0),
    one value per sample; spinors carry their components on a last axis."""
    er_el = (er.conjugate() * el).sum(-1)
    el_er = (el.conjugate() * er).sum(-1)
    pref = h_e * R / np.sqrt(1.0 + psi3.real**2)
    return pref * (er_el + el_er + 1j * psi3 * (el_er - er_el))


def suite_fermion(cfg: RunConfig) -> SuiteResult:
    """Matrix vs expanded Yukawa forms, the base-part closed formula, the
    kinetic terms against a numpy oracle, no odd grade of j in the
    density at formal j (the neutrino's j always meets a second one), the
    extracted electron mass, the massless neutrino, and the photon's
    lepton couplings: none to the neutrino, one charge for e_l and e_r."""
    order = cfg.order
    tol_id = TOLERANCES["fermion_identity"]
    tol_mass = TOLERANCES["fermion_mass"]
    count = cfg.samples("fermion_identity")
    streams = _streams(cfg, "fermion")
    c = cfg.couplings

    def identity(psicfg, fcfg, x):
        ps = sample_psi(psicfg, x, order)
        fs = sample_fermions(fcfg, x, order)
        lhs = yukawa_matrix_form(phi_from_psi(ps, c.R).value, fs, c.h_e)
        rhs = yukawa_expanded_form(ps, fs, c)
        leptons = fs.value.grade(0)
        oracle = _grade0_yukawa_oracle(ps.value.grade(0)[..., 2], leptons[..., 0, :],
                                       leptons[..., 2, :], c.h_e, c.R)
        return _sample_size(lhs - rhs), np.abs(lhs.grade(0) - oracle)

    identity_resid, grade0_resid = _sampled_max(
        count, _draws(streams, _wave(0.5, (3,)), _spinors, _points), identity)

    massless = dataclasses.replace(c, h_e=0.0)
    origin = np.zeros(4)
    phi = phi_from_psi(sample_psi(constant(np.zeros(3)), origin, order, 1.0), c.R).value

    def kinetic(gauge, fcfg, x):
        """The density at j = 1 and h_e = 0 is its kinetic terms (phi is
        unread); the whole density at formal j gives the odd grades."""
        density = lagrangian_fermion(sample_fermions(fcfg, x, order, 1.0), phi,
                                     sample_gauge(gauge, x, order, 1.0), massless)
        oracle = fermion_kinetic_oracle(gauge, fcfg, x, massless)
        graded = lagrangian_fermion(sample_fermions(fcfg, x, order), phi,
                                    sample_gauge(gauge, x, order), c)
        return (_sample_size(density - oracle) / np.maximum(abs(oracle), 1.0),
                _odd_grades(graded))

    kinetic_resid, odd = _sampled_max(
        count, _draws(streams, _wave(0.5, (4, 4)), _spinors, _points), kinetic)

    m_e, nu_coeff = lepton_masses(c)
    m_e_err = abs(m_e - c.h_e * c.R) / (c.h_e * c.R)
    # at h_e = 0 each lepton's eps^2 coefficient is its coupling to the photon
    photon = np.array([0.0, 0.0, c.gp, -c.g]) / c.gz
    e_l, nu, e_r = background_coefficients(massless, photon, np.eye(3)).coeffs[..., 0]
    charge_resid = float(max(np.abs(nu).max(), np.abs(e_l - e_r).max()) / c.g)

    return _result("fermion", {
        "yukawa_identity": (identity_resid, tol_id),
        "grade0_oracle": (grade0_resid, tol_id),
        "kinetic_oracle": (kinetic_resid, tol_id),
        "odd_grades": (odd, 0.0),
        "electron_mass_rel_error": (m_e_err, tol_mass),
        "neutrino_mass_coefficient": (nu_coeff, 0.0),
        "photon_charges": (charge_resid, tol_mass),
    })


# ---------------------------------------------------------------------------
# limit
# ---------------------------------------------------------------------------


def suite_limit(cfg: RunConfig) -> SuiteResult:
    """Nilpotent arithmetic vs small-parameter numeric runs: grades 0 and 2
    of a commutator entry, a hermitian form and the bosonic density
    against their extrapolation to t = 0, and the t^2 scaling of the W
    mass coefficient."""
    tol = TOLERANCES["limit"]
    order, c = cfg.order, cfg.couplings

    def commutator_entry(jval: "float | None") -> Jet:
        t1 = generator(1, order, jval).matrix
        t2 = generator(2, order, jval).matrix
        return t1.commutator(t2)[0, 0]

    def hermitian_form_value(jval: "float | None") -> Jet:
        phi = stack([Jet.const(0.6 + 0.2j, order),
                     jparam(order, jval) * (0.3 - 0.7j)])
        return hermitian_form_jets(phi, phi)

    gauge, psicfg = random_bosonic_config(next(_streams(cfg, "limit")), amplitude=0.1)
    x = np.array([0.2, -0.4, 0.1, 0.3])

    def density_value(jval: "float | None") -> Jet:
        gs = sample_gauge(gauge, x, order, jval)
        ps = sample_psi(psicfg, x, order, jval)
        return lagrangian_bosonic(gs, ps, c)

    grade_diff = 0.0
    for evaluate in (commutator_entry, hermitian_form_value, density_value):
        formal = evaluate(None)
        a0, a2 = extrapolate_even([evaluate(t).grade(0) for t in LIMIT_T_VALUES])
        grade_diff = max(grade_diff, abs(formal.grade(0) - a0),
                         abs(formal.grade(2) - a2))

    w_values = [background_coefficients(c, np.eye(4)[:1], jval=t).grade(0)[0].real
                for t in LIMIT_T_VALUES]
    logs = np.log(np.abs(w_values))
    logt = np.log(np.asarray(LIMIT_T_VALUES))
    slope = float(np.polyfit(logt, logs, 1)[0])

    return _result("limit", {
        "max_grade_diff": (grade_diff, tol),
        "scaling_exponent_error": (abs(slope - 2.0), tol),
    }, {"t_values": list(LIMIT_T_VALUES)})


REGISTRY: Dict[str, Callable[[RunConfig], SuiteResult]] = {
    "algebra": suite_algebra,
    "group": suite_group,
    "invariance": suite_invariance,
    "coordinate": suite_coordinate,
    "quadratic": suite_quadratic,
    "cubic": suite_cubic,
    "fermion": suite_fermion,
    "limit": suite_limit,
}


#: (suite, coupling, reason): a selected suite needs that coupling > 0
_NEEDS_POSITIVE = (
    ("invariance", "gp", "the U(1) gauge shift divides by gp"),
    ("fermion", "h_e", "the electron mass error divides by h_e R"),
)


def selected_suites(cfg: RunConfig) -> Tuple[str, ...]:
    """The suites cfg selects, each once and in the order first named (all
    of them when none is named), after rejecting an unknown name or a
    coupling that a selected suite cannot use."""
    names = tuple(dict.fromkeys(cfg.suites or REGISTRY))
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        raise ConfigError(f"unknown suite name(s): {', '.join(unknown)}")
    for suite, coupling, reason in _NEEDS_POSITIVE:
        if suite in names and getattr(cfg.couplings, coupling) == 0.0:
            raise ConfigError(f"the {suite} suite needs {coupling} > 0 ({reason})")
    return names


def run_suites(cfg: RunConfig) -> Dict[str, SuiteResult]:
    """Run the selected suites in order, in this process."""
    return {name: REGISTRY[name](cfg) for name in selected_suites(cfg)}
