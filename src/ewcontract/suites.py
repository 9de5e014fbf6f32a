"""Named verification suites over the algebra, group, Lagrangian and
spectrum layers.

Each suite is a pure function from a RunConfig to a SuiteResult; the
registry maps stable suite names to these functions so the CLI and the
test harness agree on what "the algebra suite" means. DEFAULTS holds every
suite's default tolerances and sample counts; RunConfig can override any of
them and rejects an override that names no default or has a bad value.

A sampled check draws its samples one after the other, CONFIG_CHUNK at a
time, and _sampled_max evaluates each chunk over a leading batch axis; the
check's residual is the maximum over every sample. Evaluation draws no
random numbers, so a sample's numbers do not depend on the chunk.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Sequence, Tuple

import numpy as np

from .fields import (
    ConfigError,
    Couplings,
    EpsConfig,
    FermionConfig,
    PsiConfig,
    phi_from_psi,
    sample_fermions,
    sample_gauge,
    sample_psi,
    infinitesimal_gauge_transform,
    stack_configs,
)
from .group import (
    MatterDoublet,
    apply_group,
    exp_closed_nilpotent,
    exp_closed_su2,
    exp_series,
    generator,
    group_product,
    hermitian_form_jets,
    random_factors,
)
from .jets import DEFAULT_ORDER, Jet, JetMatrix2
from .lagrangian import (
    fermion_mass_identity,
    lagrangian_bosonic,
    lagrangian_gauge,
    lagrangian_phi,
    lagrangian_psi,
    lagrangian_psi_closed,
)
from .spectrum import (
    LIMIT_T_VALUES,
    cubic_check,
    epsilon_expand,
    limit_consistency,
    mass_spectrum,
    quadratic_check,
    random_bosonic_config,
    random_plane_wave,
)

SCHEMA_VERSION = "1.1"

#: default tolerance of every gate and default size of every sampled
#: check, under the config keys that override them (one line per suite)
DEFAULTS: Dict[str, Dict[str, float]] = {
    "tolerances": {
        "algebra": 1.0e-12,
        "group": 1.0e-12,
        "invariance_form": 1.0e-12, "invariance_first_order": 1.0e-12,
        "coordinate_sphere": 1.0e-12, "coordinate_equivalence": 1.0e-12,
        "quadratic_form": 1.0e-12, "mass_rel": 1.0e-12, "mass_zero": 1.0e-12,
        "cubic_grade0": 1.0e-12, "cubic_match": 1.0e-11,
        "fermion_identity": 1.0e-12, "fermion_mass": 1.0e-12,
        "limit": 1.0e-7,
    },
    "sample_counts": {
        "group": 1000,
        "invariance_form": 100, "invariance_gauge": 20,
        "coordinate_sphere": 100, "coordinate_equivalence": 50,
        "mass_sets": 10,
        "fermion_identity": 50,
    },
}

#: largest accepted sample count: the time of a sampled check grows
#: linearly with its count
MAX_SAMPLE_COUNT = 10000

#: samples a sampled check evaluates at once: its memory is bounded by this
#: chunk, not by its sample count. 1,000 is the largest default sample
#: count, so a default run is one chunk per check
CONFIG_CHUNK = 1000


def _finite_float(value: "int | float") -> bool:
    """Whether value converts to a finite float (a huge int overflows)."""
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def check_overrides(section: str, overrides) -> None:
    """Raise ConfigError for a bad key or value under DEFAULTS[section]."""
    if not isinstance(overrides, dict):
        raise ConfigError(f"{section} must be an object")
    for key, value in overrides.items():
        if key not in DEFAULTS[section]:
            raise ConfigError(f"unknown {section} key {key!r}")
        real = isinstance(value, (int, float)) and not isinstance(value, bool)
        if section == "tolerances" and not (real and _finite_float(value)):
            raise ConfigError(f"tolerance {key!r} must be a finite "
                              f"number, got {value!r}")
        if section == "sample_counts" and not (
                real and isinstance(value, int)
                and 1 <= value <= MAX_SAMPLE_COUNT):
            raise ConfigError(f"sample count {key!r} must be an integer "
                              f"between 1 and {MAX_SAMPLE_COUNT}, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a suite run depends on; the seed is echoed into every
    report so runs stay reproducible."""

    couplings: Couplings
    order: int = DEFAULT_ORDER
    seed: int = 0
    suites: Tuple[str, ...] = ()
    sample_counts: Dict[str, int] = field(default_factory=dict)
    tolerances: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for section in DEFAULTS:
            check_overrides(section, getattr(self, section))

    def samples(self, key: str) -> int:
        return self.sample_counts.get(key, DEFAULTS["sample_counts"][key])

    def tol(self, key: str) -> float:
        return float(self.tolerances.get(key, DEFAULTS["tolerances"][key]))


@dataclass
class SuiteResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    details: dict

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "details": self.details,
        }


def _result(name: str, gates: Sequence[Tuple[float, float]],
            details: dict) -> SuiteResult:
    """A suite passes when every (residual, tolerance) gate holds; it
    reports its largest residual against its largest tolerance."""
    return SuiteResult(
        name,
        all(bool(r <= t) for r, t in gates),
        float(max(r for r, _ in gates)),
        float(max(t for _, t in gates)),
        details,
    )


def _low_grade_diff(x: Jet, y: Jet) -> float:
    """Largest coefficient difference on grades 0 and 1 (the grades that
    survive nilpotent arithmetic), over every batch element."""
    return float(np.max(np.abs(x.coeffs[..., :2, 0] - y.coeffs[..., :2, 0])))


def _sample_size(x: Jet) -> np.ndarray:
    """Largest coefficient magnitude of each sample (leading axis)."""
    return np.abs(x.coeffs).reshape(len(x.coeffs), -1).max(axis=1)


def _sample_diff(x: Jet, y: "Jet | float") -> np.ndarray:
    """Largest coefficient difference of each sample (leading axis)."""
    return _sample_size(x - y)


def _sampled_max(draws: Iterable[tuple],
                 evaluate: Callable[..., Sequence[np.ndarray]]) -> list[float]:
    """Each gate's largest residual over the draws (one tuple per sample),
    drawn CONFIG_CHUNK at a time and stacked slot by slot: a configuration
    by stack_configs, anything else by np.array. evaluate(*slots) returns
    one per-sample residual array per gate; a NaN residual fails its gate."""
    draws, worst = iter(draws), None
    while chunk := list(itertools.islice(draws, CONFIG_CHUNK)):
        slots = [stack_configs(slot) if dataclasses.is_dataclass(slot[0])
                 else np.array(slot) for slot in zip(*chunk)]
        maxima = [np.max(residual) for residual in evaluate(*slots)]
        worst = maxima if worst is None else np.maximum(worst, maxima)
    return [float(r) for r in worst]


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


def suite_algebra(cfg: RunConfig) -> SuiteResult:
    """Closed-form commutator table, grade by grade, plus the nilpotent
    collapse of [T1, T2]."""
    order = cfg.order
    tol = cfg.tol("algebra")
    gens = {k: generator(k, order).matrix for k in (1, 2, 3)}
    j = Jet.variable(order)
    zero = JetMatrix2.zero(order)
    expected = {(1, 2): gens[3] * -(j * j), (2, 3): -gens[1], (3, 1): -gens[2]}
    residual = 0.0
    for k in (1, 2, 3):
        residual = max(residual, gens[k].commutator(gens[k]).max_abs_diff(zero))
    for (k, l), rhs in expected.items():
        comm = gens[k].commutator(gens[l])
        residual = max(residual, comm.max_abs_diff(rhs))
        flipped = gens[l].commutator(gens[k])
        residual = max(residual, flipped.max_abs_diff(-rhs))
    nilpotent_resid = _low_grade_diff(gens[1].commutator(gens[2]).jet, zero.jet)
    residual = max(residual, nilpotent_resid)
    return _result("algebra", [(residual, tol)],
                   {"nilpotent_t1_t2": nilpotent_resid})


# ---------------------------------------------------------------------------
# group
# ---------------------------------------------------------------------------


def suite_group(cfg: RunConfig) -> SuiteResult:
    """Unitarity and unimodularity of random products, and the closed
    exponential forms against the series exponential."""
    order = cfg.order
    tol = cfg.tol("group")
    count = cfg.samples("group")
    rng = np.random.default_rng(cfg.seed)
    identity = JetMatrix2.identity(order).jet

    def products(ks: np.ndarray, angles: np.ndarray):
        u = group_product(ks, angles, order)
        return _sample_diff((u * u.dagger()).jet, identity), _sample_diff(u.det(), 1.0)

    def draws():  # one block of factors per chunk
        for start in range(0, count, CONFIG_CHUNK):
            yield from zip(*random_factors(rng, (min(CONFIG_CHUNK, count - start),)))

    unitarity, det_resid = _sampled_max(draws(), products)

    samples = rng.uniform(-2.0, 2.0, size=(20, 3))
    samples[np.abs(samples[:, 2]) < 0.1, 2] = 0.5  # the closed form needs a3 != 0
    a = samples.T
    series = exp_series(*a, order=order)
    closed_resid = _low_grade_diff(exp_closed_nilpotent(*a, order=order).jet,
                                   series.jet)
    su2 = np.array([exp_closed_su2(*sample) for sample in samples])
    series_at_one = exp_series(*a, order=order, jval=1.0)
    su2_resid = float(np.max(np.abs(series_at_one.jet.grade(0) - su2)))
    closed_resid = max(closed_resid, su2_resid)

    return _result(
        "group",
        [(unitarity, tol), (det_resid, tol), (closed_resid, tol)],
        {
            "unitarity": unitarity,
            "determinant": det_resid,
            "closed_exponentials": closed_resid,
            "product_samples": count,
        },
    )


# ---------------------------------------------------------------------------
# invariance (hermitian form and Lagrangian gauge variation)
# ---------------------------------------------------------------------------


def suite_invariance(cfg: RunConfig) -> SuiteResult:
    """Hermitian-form preservation under random group elements, and the
    vanishing of the Lagrangian's first-order gauge variation relative to
    the unvaried density, at the grades each contraction regime reads."""
    if cfg.couplings.gp == 0.0:
        raise ConfigError("the invariance suite needs gp > 0 "
                          "(the U(1) gauge shift divides by gp)")
    order = cfg.order
    tol_form = cfg.tol("invariance_form")
    tol_first = cfg.tol("invariance_first_order")
    rng = np.random.default_rng(cfg.seed + 1)

    draws = ((rng.normal(size=4).view(complex), *random_factors(rng, (2,)))
             for _ in range(cfg.samples("invariance_form")))

    def form(phi, ks, angles):
        d = MatterDoublet(phi[:, 0], phi[:, 1], order)
        reference = hermitian_form_jets(d.graded, d.graded)
        moved = (apply_group(group_product(ks[:, e], angles[:, e], order, jval), d)
                 for e, jval in enumerate((None, 1.0)))
        change = np.maximum(*(_sample_diff(hermitian_form_jets(m, m), reference)
                              for m in moved))
        return (change / _sample_size(reference),)

    form_resid, = _sampled_max(draws, form)

    c = cfg.couplings
    configs = cfg.samples("invariance_gauge")
    draws = ((*random_bosonic_config(rng, amplitude=0.1),
              EpsConfig(random_plane_wave(rng, 0.1, (4,))),
              rng.uniform(-0.5, 0.5, size=4)) for _ in range(configs))

    def gauge_variation(gauge, psicfg, eps_cfg, x):
        worst = []
        for jval, grades in ((1.0, (0,)), (None, (0, 1)), (0.1, (0,))):
            gs = sample_gauge(gauge, x, order, jval)
            ps = sample_psi(psicfg, x, order, jval)
            sectors = []

            def transformed(scale: Jet) -> Jet:
                """eps**0: the unvaried density; eps**1: its variation."""
                gs2, ps2 = infinitesimal_gauge_transform(
                    gs, ps, eps_cfg, x, c, jval, scale)
                sectors[:] = (lagrangian_gauge(gs2, c),
                              lagrangian_psi(ps2, gs2, c))
                return sectors[0] + sectors[1]

            variation = epsilon_expand(transformed, 1, order)[1]
            # the gauge and matter densities can cancel, so the unvaried
            # density is measured sector by sector, per configuration
            size = np.max([abs(sectors[0].coeffs[..., n, 0])
                           + abs(sectors[1].coeffs[..., n, 0]) for n in grades], axis=0)
            change = np.max([abs(variation.grade(n)) for n in grades], axis=0)
            worst.append(change / np.maximum(size, 1.0e-30))
        return (np.max(worst, axis=0),)

    first_order, = _sampled_max(draws, gauge_variation)

    return _result(
        "invariance",
        [(form_resid, tol_form), (first_order, tol_first)],
        {
            "hermitian_form_residual": form_resid,
            "hermitian_form_tolerance": tol_form,
            "first_order_variation": first_order,
            "first_order_tolerance": tol_first,
            "gauge_configs": configs,
        },
    )


# ---------------------------------------------------------------------------
# coordinate (sphere constraint + doublet/intrinsic equivalence)
# ---------------------------------------------------------------------------


def suite_coordinate(cfg: RunConfig) -> SuiteResult:
    """The embedded doublet sits on the radius-R sphere, and the doublet
    and intrinsic-coordinate matter densities agree grade-wise."""
    order = cfg.order
    tol_sphere = cfg.tol("coordinate_sphere")
    tol_equiv = cfg.tol("coordinate_equivalence")
    rng = np.random.default_rng(cfg.seed + 2)
    c = cfg.couplings

    draws = ((PsiConfig(random_plane_wave(rng, 0.6, (3,))),
              rng.uniform(-0.5, 0.5, size=4))
             for _ in range(cfg.samples("coordinate_sphere")))

    def sphere(psicfg, x):
        phi, _ = phi_from_psi(sample_psi(psicfg, x, order), c.R)
        return (_sample_diff(hermitian_form_jets(phi, phi), c.R**2),)

    sphere_resid, = _sampled_max(draws, sphere)

    draws = ((*random_bosonic_config(rng, amplitude=0.3),
              rng.uniform(-0.5, 0.5, size=4))
             for _ in range(cfg.samples("coordinate_equivalence")))

    def equivalence(gauge, psicfg, x):
        gs = sample_gauge(gauge, x, order)
        ps = sample_psi(psicfg, x, order)
        phi, dphi = phi_from_psi(ps, c.R)
        doublet = lagrangian_phi(phi, dphi, gs, c)
        intrinsic = lagrangian_psi(ps, gs, c)
        scale = np.maximum(_sample_size(doublet), _sample_size(intrinsic)).clip(1e-30)
        return (_sample_diff(doublet, intrinsic) / scale,
                _sample_diff(intrinsic, lagrangian_psi_closed(ps, gs, c)) / scale)

    equiv_resid, displayed_resid = _sampled_max(draws, equivalence)

    return _result(
        "coordinate",
        [(sphere_resid, tol_sphere), (equiv_resid, tol_equiv),
         (displayed_resid, tol_equiv)],
        {
            "sphere_constraint": sphere_resid,
            "density_equivalence": equiv_resid,
            "displayed_forms": displayed_resid,
        },
    )


# ---------------------------------------------------------------------------
# quadratic (mass spectrum + base/fiber split)
# ---------------------------------------------------------------------------


def suite_quadratic(cfg: RunConfig) -> SuiteResult:
    """Quadratic coefficient vs the diagonalized form, extracted masses vs
    the closed formulas, and base-sector independence from the fiber
    gauge fields."""
    order = cfg.order
    tol_quad = cfg.tol("quadratic_form")
    tol_mass = cfg.tol("mass_rel")
    tol_zero = cfg.tol("mass_zero")
    rng = np.random.default_rng(cfg.seed + 3)
    c = cfg.couplings

    gauge, psicfg = random_bosonic_config(rng)
    quad = quadratic_check(gauge, psicfg, c, seed=cfg.seed, order=order)

    mass_resid = 0.0
    zero_resid = 0.0
    for _ in range(cfg.samples("mass_sets")):
        ci = Couplings(
            g=float(rng.uniform(0.3, 1.2)),
            gp=float(rng.uniform(0.2, 0.8)),
            R=float(rng.uniform(0.4, 2.0)),
            h_e=float(rng.uniform(0.5, 2.5)),
        )
        rep = mass_spectrum(ci, order)
        mass_resid = max(
            mass_resid,
            abs(rep.m_w - rep.closed["m_w"]) / rep.closed["m_w"],
            abs(rep.m_z - rep.closed["m_z"]) / rep.closed["m_z"],
        )
        zero_resid = max(
            zero_resid,
            rep.m_a,
            abs(rep.weinberg_cos - rep.closed["weinberg_cos"]),
        )

    # the fiber fields A^1, A^2 must not feed the grade-0 (base) density:
    # the configuration and its fiber-scaled copy at 4 points, as a
    # (4 points, 2 configurations) batch
    points = rng.uniform(-0.5, 0.5, size=(4, 4))[:, None]
    pair = stack_configs([gauge, gauge.fiber_scaled(3.0)])
    grade0 = lagrangian_bosonic(sample_gauge(pair, points, order),
                                sample_psi(psicfg, points, order), c).grade(0)
    base_resid = float(np.max(np.abs(grade0[:, 0] - grade0[:, 1])))

    return _result(
        "quadratic",
        [(quad["max_rel_diff"], tol_quad), (quad["tadpole_magnitude"], tol_zero),
         (mass_resid, tol_mass), (zero_resid, tol_zero), (base_resid, 0.0)],
        {
            "quadratic_rel_diff": quad["max_rel_diff"],
            "tadpole": quad["tadpole_magnitude"],
            "mass_rel_error": mass_resid,
            "massless_residual": zero_resid,
            "base_fiber_leak": base_resid,
        },
    )


# ---------------------------------------------------------------------------
# cubic
# ---------------------------------------------------------------------------


def suite_cubic(cfg: RunConfig) -> SuiteResult:
    """Cubic coefficient: its base part must vanish, its own closed form
    must match, and the literal transcription diffs are reported as data
    (their discrepancy is documented, not patched)."""
    order = cfg.order
    tol_zero = cfg.tol("cubic_grade0")
    tol_match = cfg.tol("cubic_match")
    rng = np.random.default_rng(cfg.seed + 4)
    gauge, psicfg = random_bosonic_config(rng, amplitude=0.04)
    report = cubic_check(gauge, psicfg, cfg.couplings, seed=cfg.seed, order=order)
    grade0 = abs(report["exact_grade0"])
    normative = report["normative"]["rel_diff"]
    return _result(
        "cubic",
        [(grade0, tol_zero), (normative, tol_match)],
        {
            "exact_grade0": grade0,
            "normative_rel_diff": normative,
            "literal_rel_diff": report["literal"]["rel_diff"],
            "literal_terms": {
                name: abs(rec["grade2"])
                for name, rec in report["literal"]["terms"].items()
            },
        },
    )


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
    extracted electron mass and the massless neutrino."""
    order = cfg.order
    tol_id = cfg.tol("fermion_identity")
    tol_mass = cfg.tol("fermion_mass")
    rng = np.random.default_rng(cfg.seed + 5)
    c = dataclasses.replace(cfg.couplings, h_e=cfg.couplings.h_e or 1.3)

    # complex spinors: with real ones the i psi_1 and i psi_3 terms vanish
    draws = ((PsiConfig(random_plane_wave(rng, 0.5, (3,))),
              FermionConfig(*(random_plane_wave(rng, 1.0, (2,)).scaled(
                  np.exp(1j * rng.uniform(-math.pi, math.pi, size=2)))
                  for _ in range(3))),
              rng.uniform(-0.5, 0.5, size=4))
             for _ in range(cfg.samples("fermion_identity")))

    def identity(psicfg, fcfg, x):
        ps = sample_psi(psicfg, x, order)
        fs = sample_fermions(fcfg, x, order)
        lhs, rhs = fermion_mass_identity(ps, fs, c)
        oracle = _grade0_yukawa_oracle(ps.psi.grade(0)[..., 2], fs.el.grade(0),
                                       fs.er.grade(0), c.h_e, c.R)
        return _sample_diff(lhs, rhs), np.abs(lhs.grade(0) - oracle)

    identity_resid, grade0_resid = _sampled_max(draws, identity)

    rep = mass_spectrum(c, order)
    m_e_err = abs(rep.m_e - c.h_e * c.R) / (c.h_e * c.R)
    nu_coeff = rep.nu_mass_coefficient

    return _result(
        "fermion",
        [(identity_resid, tol_id), (grade0_resid, tol_id), (m_e_err, tol_mass),
         (nu_coeff, 0.0)],
        {
            "yukawa_identity": identity_resid,
            "grade0_oracle": grade0_resid,
            "electron_mass_rel_error": m_e_err,
            "neutrino_mass_coefficient": nu_coeff,
        },
    )


# ---------------------------------------------------------------------------
# limit
# ---------------------------------------------------------------------------


def suite_limit(cfg: RunConfig) -> SuiteResult:
    """Nilpotent arithmetic vs extrapolated small-parameter numeric runs."""
    tol = cfg.tol("limit")
    report = limit_consistency(cfg.couplings, seed=cfg.seed, order=cfg.order)
    return _result(
        "limit",
        [(report["max_grade_diff"], tol), (report["scaling_exponent_error"], tol)],
        {
            "max_grade_diff": report["max_grade_diff"],
            "scaling_exponent_error": report["scaling_exponent_error"],
            "t_values": list(LIMIT_T_VALUES),
        },
    )


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


def run_suites(cfg: RunConfig) -> Dict[str, SuiteResult]:
    """Run the selected suites (all of them for an empty explicit list is
    a configuration error; selection happens upstream)."""
    names = cfg.suites or tuple(REGISTRY)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        raise ConfigError(f"unknown suite name(s): {', '.join(unknown)}")
    return {name: REGISTRY[name](cfg) for name in names}
