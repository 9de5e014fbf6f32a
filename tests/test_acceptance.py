"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion: it runs the suite
that holds the criterion's checks at the criterion's own seed, couplings
and sample counts, reads the suite's named gates against the criterion's
bounds, and emits a single pass/fail line (bypassing pytest capture so
the lines appear in batch logs). Where a gate is looser than the
criterion, the criterion keeps its own check next to the gate."""

import dataclasses
import math
import sys

import numpy as np

from ewcontract.fields import (
    Couplings,
    PlaneWave,
    constant,
    gauge_transform,
    hermitian_form_jets,
    phi_from_psi,
    sample_fermions,
    sample_gauge,
    sample_psi,
)
from ewcontract.group import (
    exp_closed_nilpotent,
    exp_series,
    graded_doublet,
    group_product,
    random_factors,
)
from ewcontract.jets import DEFAULT_ORDER
from ewcontract.lagrangian import lagrangian_bosonic
from ewcontract.spectrum import epsilon_expand, mass_spectrum, random_plane_wave
from ewcontract.suites import RunConfig, SuiteResult, run_suites

ORDER = DEFAULT_ORDER
COUPLINGS = Couplings(g=0.65, gp=0.35, R=0.8, h_e=1.3)


def _verdict(number: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number:02d}: {label}{extra}",
          file=sys.__stdout__, flush=True)
    assert passed, f"criterion {number} failed: {label} {extra}"


def _run(suite: str, seed: int, **sample_counts: int) -> SuiteResult:
    """One suite at the criterion couplings, the seed and the sample counts."""
    cfg = RunConfig(COUPLINGS, order=ORDER, seed=seed, suites=(suite,),
                    sample_counts=sample_counts)
    return run_suites(cfg)[suite]


def test_criterion_01_commutator_table():
    result = _run("algebra", 0)
    nil = result.details["nilpotent_t1_t2"]
    _verdict(1, "commutator table closed form",
             result.residual <= 1e-12 and nil <= 1e-12,
             f"residual {result.residual:.2e}")


def test_criterion_02_group_law():
    gates = _run("group", 11, group=1000).details
    residual = max(gates["unitarity"], gates["determinant"],
                   gates["closed_exponentials"], gates["one_parameter_subgroups"],
                   gates["electromagnetic_charge"])
    # the suite checks 20 closed nilpotent exponentials, the criterion 50
    rng = np.random.default_rng(11)
    a = rng.uniform(-2.0, 2.0, size=(50, 3))
    a[np.abs(a[:, 2]) < 0.05, 2] = 0.4
    series = exp_series(*a.T, order=ORDER).jet.coeffs[..., :2, 0]
    nilform = exp_closed_nilpotent(*a.T, order=ORDER).jet.coeffs[..., :2, 0]
    closed = float(np.max(np.abs(series - nilform)))
    _verdict(2, "group law and closed exponential",
             residual <= 1e-12 and closed <= 1e-12,
             f"residual {max(residual, closed):.2e}")


def test_criterion_03_hermitian_form_invariance():
    relative = _run("invariance", 12, invariance_form=100,
                    invariance_gauge=1).details["hermitian_form_residual"]
    # the gate is relative to each form's size, the criterion's bound absolute
    rng = np.random.default_rng(12)
    phi = rng.normal(size=(100, 4)).view(complex)
    d = graded_doublet(phi[:, 0], phi[:, 1], ORDER)
    reference = hermitian_form_jets(d, d)
    ks, angles = random_factors(rng, (2, 100))
    moved = [group_product(ks[e], angles[e], ORDER, jval).apply(d)
             for e, jval in enumerate((None, 1.0))]
    absolute = max(hermitian_form_jets(m, m).max_abs_diff(reference) for m in moved)
    _verdict(3, "hermitian form invariance",
             relative <= 1e-12 and absolute <= 1e-12,
             f"residual {absolute:.2e}, relative {relative:.2e}")


def test_criterion_04_sphere_constraint():
    gate = _run("coordinate", 13, coordinate_sphere=100,
                coordinate_equivalence=1).details["sphere_constraint"]
    # the suite draws amplitude 0.6 on [-0.5, 0.5]^4, the criterion 0.7 on [-1, 1]^4
    rng = np.random.default_rng(13)
    psicfg = random_plane_wave(rng, 0.7, (100, 3))
    ps = sample_psi(psicfg, rng.uniform(-1, 1, size=(100, 4)), ORDER)
    phi = phi_from_psi(ps, COUPLINGS.R).value
    residual = hermitian_form_jets(phi, phi).max_abs_diff(COUPLINGS.R**2)
    _verdict(4, "sphere constraint", gate <= 1e-12 and residual <= 1e-12,
             f"residual {residual:.2e}, suite {gate:.2e}")


def test_criterion_05_coordinate_equivalence():
    gates = _run("coordinate", 14, coordinate_equivalence=50).details
    residual = max(gates["density_equivalence"], gates["displayed_forms"],
                   gates["matrix_covariant_derivative"], gates["chain_rule"])
    _verdict(5, "coordinate equivalence of matter densities",
             residual <= 1e-12, f"rel residual {residual:.2e}")


def test_criterion_06_gauge_invariance_scaling():
    """With the gauge parameters scaled by eps, the density's eps**1
    coefficient vanishes relative to the density at the grades each regime
    reads, and its eps**2 coefficient does not where T1 and T2 act."""
    gate = _run("invariance", 15, invariance_gauge=20).details[
        "first_order_variation"]
    # the gate divides by the gauge and matter sectors' sizes added, the
    # criterion by the density itself, and only the criterion reads eps**2
    rng = np.random.default_rng(15)
    # all 20 A fields are drawn before the 20 B fields; they join along the
    # component axis into the gauge field over (A^1, A^2, A^3, B)
    A, B = (dataclasses.astuple(random_plane_wave(rng, 0.1, shape))
            for shape in ((20, 3, 4), (20, 4)))
    gauge = PlaneWave(*(np.concatenate([a, b[:, None]], 1) for a, b in zip(A, B)))
    psicfg = random_plane_wave(rng, 0.1, (20, 3))
    eps = random_plane_wave(rng, 0.1, (20, 4))
    x = rng.uniform(-0.5, 0.5, size=(20, 4))
    first, second = 0.0, math.inf
    # at formal j the eps**2 coefficient is read at grade 2, where T1 and
    # T2 first act: on grade 0 the abelian T3 and Y leave it 0
    for jval, grades, later in ((1.0, (0,), (0,)), (None, (0, 1), (2,)),
                                (0.1, (0,), (0,))):
        gs = sample_gauge(gauge, x, ORDER, jval)
        ps = sample_psi(psicfg, x, ORDER, jval)
        fs = sample_fermions(constant(np.zeros((3, 2))), x, ORDER, jval)

        def transformed(scale):
            gs2, ps2, _ = gauge_transform(eps, x, COUPLINGS, gs, ps, fs, jval, scale)
            return lagrangian_bosonic(gs2, ps2, COUPLINGS)

        density, d1, d2 = epsilon_expand(transformed, 2)
        size, d1, d2 = (np.max([abs(term.grade(n)) for n in read], axis=0)
                        for term, read in ((density, grades), (d1, grades), (d2, later)))
        first = max(first, float(np.max(d1 / size)))
        second = min(second, float(np.min(d2 / size)))
    _verdict(6, "gauge variation is second order",
             gate <= 1e-12 and first <= 1e-12 and second > 1e-12,
             f"eps^1 {first:.1e}, eps^2 at least {second:.1e} of the density")


def test_criterion_07_mass_spectrum():
    gates = _run("quadratic", 16, mass_sets=10).details
    rel, zero = gates["mass_rel_error"], gates["massless_residual"]
    reference = mass_spectrum(Couplings(g=0.65, gp=0.35, R=0.5))
    ref_ok = abs(reference.m_w - 0.1625) <= 1e-12
    _verdict(7, "mass spectrum closed formulas",
             rel <= 1e-12 and zero <= 1e-12 and ref_ok,
             f"rel {rel:.2e}, zero {zero:.2e}")


def test_criterion_08_base_fiber_split():
    gates = _run("quadratic", 17).details
    # grade 2 of the quadratic form is exactly the W sector
    fiber, leak = gates["quadratic_rel_diff"], gates["base_fiber_leak"]
    _verdict(8, "base/fiber split",
             fiber <= 1e-12 and leak == 0.0,
             f"fiber rel diff {fiber:.2e}, base leak {leak:.1e}")


def test_criterion_09_fermion_sector():
    gates = _run("fermion", 18, fermion_identity=50).details
    identity = max(gates["yukawa_identity"], gates["grade0_oracle"],
                   gates["kinetic_oracle"])
    m_e_err = gates["electron_mass_rel_error"]
    nu = gates["neutrino_mass_coefficient"]
    _verdict(9, "fermion sector",
             identity <= 1e-12 and m_e_err <= 1e-12 and nu == 0.0,
             f"identity {identity:.2e}, m_e rel {m_e_err:.2e}, nu {nu:.1e}")


def test_criterion_10_contraction_limit_equivalence():
    gates = _run("limit", 10).details
    ok = (
        gates["max_grade_diff"] <= 1e-7
        and gates["scaling_exponent_error"] <= 1e-7
    )
    _verdict(10, "nilpotent vs extrapolated numeric runs", ok,
             f"max diff {gates['max_grade_diff']:.2e}")


def test_criterion_11_cubic_terms():
    gates = _run("cubic", 19).details
    grade0 = gates["exact_grade0"]
    # the rederived closed form must match the exact coefficient, and the
    # suite reports its two gates and nothing else
    normative = gates["normative_rel_diff"]
    only_gates = set(gates) == {"exact_grade0", "normative_rel_diff"}
    ok = grade0 <= 1e-12 and normative <= 1e-11 and only_gates
    _verdict(11, "cubic coefficient against its rederived closed form", ok,
             f"grade0 {grade0:.1e}, closed-form rel {normative:.1e}")
