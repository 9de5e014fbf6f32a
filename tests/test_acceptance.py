"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion at its stated sample
count and tolerance, and emits a single pass/fail line (bypassing pytest
capture so the lines appear in batch logs)."""

import math
import sys

import numpy as np

from ewcontract.fields import (
    Couplings,
    EpsConfig,
    FermionConfig,
    PsiConfig,
    infinitesimal_gauge_transform,
    phi_from_psi,
    sample_fermions,
    sample_gauge,
    sample_psi,
)
from ewcontract.group import (
    MatterDoublet,
    apply_group,
    commutator_table,
    exp_closed_nilpotent,
    exp_series,
    generator,
    hermitian_form_jets,
    random_group_element,
)
from ewcontract.jets import DEFAULT_ORDER, Jet, JetMatrix2
from ewcontract.lagrangian import (
    fermion_mass_identity,
    lagrangian_bosonic,
    lagrangian_phi,
    lagrangian_psi,
    lagrangian_psi_closed,
)
from ewcontract.spectrum import (
    _abelian_curls,
    bosonic_density_evaluator,
    cubic_check,
    epsilon_expand,
    halton_points,
    limit_consistency,
    mass_spectrum,
    physical_fields,
    random_bosonic_config,
    random_plane_wave,
)

ORDER = DEFAULT_ORDER
COUPLINGS = Couplings(g=0.65, gp=0.35, R=0.8, h_e=1.3)


def _verdict(number: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number:02d}: {label}{extra}",
          file=sys.__stdout__, flush=True)
    assert passed, f"criterion {number} failed: {label} {extra}"


def test_criterion_01_commutator_table():
    gens = {k: generator(k, ORDER).matrix for k in (1, 2, 3)}
    j = Jet.variable(ORDER)
    expected = {(1, 2): gens[3] * -(j * j), (2, 3): -gens[1], (3, 1): -gens[2]}
    table = commutator_table(ORDER)
    residual = 0.0
    for (k, l), rhs in expected.items():
        residual = max(residual, table[(k, l)].max_abs_diff(rhs))
        residual = max(residual, table[(l, k)].max_abs_diff(-rhs))
    for k in (1, 2, 3):
        residual = max(
            residual, table[(k, k)].max_abs_diff(JetMatrix2.zero(ORDER))
        )
    nil = max(
        abs(table[(1, 2)][r, c].grade(n))
        for r in range(2) for c in range(2) for n in (0, 1)
    )
    _verdict(1, "commutator table closed form",
             residual <= 1e-12 and nil <= 1e-12,
             f"residual {max(residual, nil):.2e}")


def test_criterion_02_group_law():
    rng = np.random.default_rng(11)
    identity = JetMatrix2.identity(ORDER)
    one = Jet.const(1.0, ORDER)
    residual = 0.0
    for _ in range(1000):
        u = random_group_element(rng, ORDER)
        residual = max(residual, (u * u.dagger()).max_abs_diff(identity))
        residual = max(residual, u.det().max_abs_diff(one))
    closed = 0.0
    for _ in range(50):
        a = rng.uniform(-2.0, 2.0, size=3)
        if abs(a[2]) < 0.05:
            a[2] = 0.4
        series = exp_series(*a, order=ORDER)
        nilform = exp_closed_nilpotent(*a, order=ORDER)
        closed = max(
            closed,
            max(
                abs(series[r, c].grade(n) - nilform[r, c].grade(n))
                for r in range(2) for c in range(2) for n in (0, 1)
            ),
        )
    _verdict(2, "group law and closed exponential",
             residual <= 1e-12 and closed <= 1e-12,
             f"residual {max(residual, closed):.2e}")


def test_criterion_03_hermitian_form_invariance():
    rng = np.random.default_rng(12)
    residual = 0.0
    for _ in range(100):
        d = MatterDoublet(
            complex(rng.normal(), rng.normal()),
            complex(rng.normal(), rng.normal()),
            ORDER,
        )
        reference = hermitian_form_jets(d.graded, d.graded)
        for jval in (None, 1.0):
            u = random_group_element(rng, ORDER, jval=jval)
            moved = apply_group(u, d)
            residual = max(
                residual,
                hermitian_form_jets(moved, moved).max_abs_diff(reference),
            )
    _verdict(3, "hermitian form invariance", residual <= 1e-12,
             f"residual {residual:.2e}")


def test_criterion_04_sphere_constraint():
    rng = np.random.default_rng(13)
    residual = 0.0
    for _ in range(100):
        cfg = PsiConfig(random_plane_wave(rng, 0.7, (3,)))
        ps = sample_psi(cfg, rng.uniform(-1, 1, size=4), ORDER)
        phi, _ = phi_from_psi(ps, COUPLINGS.R)
        residual = max(
            residual,
            hermitian_form_jets(phi, phi).max_abs_diff(COUPLINGS.R**2),
        )
    _verdict(4, "sphere constraint", residual <= 1e-12,
             f"residual {residual:.2e}")


def test_criterion_05_coordinate_equivalence():
    rng = np.random.default_rng(14)
    residual = 0.0
    for _ in range(50):
        gauge, psicfg = random_bosonic_config(rng, amplitude=0.3)
        x = rng.uniform(-0.5, 0.5, size=4)
        gs = sample_gauge(gauge, x, ORDER)
        ps = sample_psi(psicfg, x, ORDER)
        phi, dphi = phi_from_psi(ps, COUPLINGS.R)
        doublet = lagrangian_phi(phi, dphi, gs, COUPLINGS)
        intrinsic = lagrangian_psi(ps, gs, COUPLINGS)
        scale = max(np.abs(doublet.coeffs).max(), 1e-30)
        residual = max(
            residual,
            doublet.max_abs_diff(intrinsic) / scale,
            intrinsic.max_abs_diff(
                lagrangian_psi_closed(ps, gs, COUPLINGS)
            ) / scale,
        )
    _verdict(5, "coordinate equivalence of matter densities",
             residual <= 1e-12, f"rel residual {residual:.2e}")


def test_criterion_06_gauge_invariance_scaling():
    """With the gauge parameters scaled by eps, the density's eps**1
    coefficient vanishes relative to the density and its eps**2
    coefficient does not, at the grades each regime reads."""
    rng = np.random.default_rng(15)
    first, second = 0.0, math.inf
    for _ in range(20):
        gauge, psicfg = random_bosonic_config(rng, amplitude=0.1)
        eps = EpsConfig(random_plane_wave(rng, 0.1, (4,)))
        x = rng.uniform(-0.5, 0.5, size=4)
        for jval in (1.0, None, 0.1):
            grades = (0, 1) if jval is None else (0,)
            gs = sample_gauge(gauge, x, ORDER, jval)
            ps = sample_psi(psicfg, x, ORDER, jval)

            def transformed(scale):
                gs2, ps2 = infinitesimal_gauge_transform(
                    gs, ps, eps, x, COUPLINGS, jval, scale
                )
                return lagrangian_bosonic(gs2, ps2, COUPLINGS)

            density, d1, d2 = epsilon_expand(transformed, 2)
            size = max(abs(density.grade(n)) for n in grades)
            first = max(first, max(abs(d1.grade(n)) for n in grades) / size)
            second = min(second, max(abs(d2.grade(n)) for n in grades) / size)
    _verdict(6, "gauge variation is second order",
             first <= 1e-12 and second > 1e-12,
             f"eps^1 {first:.1e}, eps^2 at least {second:.1e} of the density")


def test_criterion_07_mass_spectrum():
    rng = np.random.default_rng(16)
    rel = 0.0
    zero = 0.0
    for _ in range(10):
        c = Couplings(
            g=float(rng.uniform(0.3, 1.2)),
            gp=float(rng.uniform(0.2, 0.8)),
            R=float(rng.uniform(0.4, 2.0)),
        )
        rep = mass_spectrum(c)
        rel = max(
            rel,
            abs(rep.m_w - c.R * c.g / 2.0) / (c.R * c.g / 2.0),
            abs(rep.m_z - c.R * c.gz / 2.0) / (c.R * c.gz / 2.0),
        )
        zero = max(zero, rep.m_a, abs(rep.weinberg_cos - c.g / c.gz))
    reference = mass_spectrum(Couplings(g=0.65, gp=0.35, R=0.5))
    ref_ok = abs(reference.m_w - 0.1625) <= 1e-12
    _verdict(7, "mass spectrum closed formulas",
             rel <= 1e-12 and zero <= 1e-12 and ref_ok,
             f"rel {rel:.2e}, zero {zero:.2e}")


def test_criterion_08_base_fiber_split():
    rng = np.random.default_rng(17)
    gauge, psicfg = random_bosonic_config(rng)
    points = halton_points(seed=17)
    expansion = epsilon_expand(
        bosonic_density_evaluator(gauge, psicfg, COUPLINGS, points), 2
    )
    # grade-2 quadratic part must be exactly the W sector
    m_w2 = (COUPLINGS.R * COUPLINGS.g / 2.0) ** 2
    w_terms = []
    for x in points:
        gs = sample_gauge(gauge, x, ORDER)
        ps = sample_psi(psicfg, x, ORDER)
        pf = physical_fields(gs, ps, COUPLINGS)
        wp, wm, _, _ = _abelian_curls(gs, COUPLINGS)
        total = Jet.zero(ORDER)
        for mu in range(4):
            total = total + m_w2 * (pf.wplus[mu] * pf.wminus[mu])
            for nu in range(4):
                total = total - 0.5 * (wp[mu][nu] * wm[mu][nu])
        w_terms.append(total.grade(2))
    fiber_expected = sum(w_terms) / len(w_terms)
    fiber_diff = abs(expansion[2].grade(2) - fiber_expected)
    fiber_scale = max(abs(fiber_expected), 1e-30)

    # rescaling the fiber gauge fields must leave the base density
    # bit-identical
    rescaled = gauge.fiber_scaled(4.0)
    leak = 0.0
    for x in points[:4]:
        ps = sample_psi(psicfg, x, ORDER)
        before = lagrangian_bosonic(sample_gauge(gauge, x, ORDER), ps, COUPLINGS)
        after = lagrangian_bosonic(sample_gauge(rescaled, x, ORDER), ps, COUPLINGS)
        leak = max(leak, abs(before.grade(0) - after.grade(0)))
    _verdict(8, "base/fiber split",
             fiber_diff / fiber_scale <= 1e-12 and leak == 0.0,
             f"fiber rel diff {fiber_diff / fiber_scale:.2e}, base leak {leak:.1e}")


def test_criterion_09_fermion_sector():
    rng = np.random.default_rng(18)
    identity_resid = 0.0
    for _ in range(50):
        psicfg = PsiConfig(random_plane_wave(rng, 0.5, (3,)))
        fcfg = FermionConfig(*(random_plane_wave(rng, 1.0, (2,)).scaled(
            np.exp(1j * rng.uniform(-math.pi, math.pi, size=2)))
            for _ in range(3)))
        x = rng.uniform(-0.5, 0.5, size=4)
        ps = sample_psi(psicfg, x, ORDER)
        fs = sample_fermions(fcfg, x, ORDER)
        lhs, rhs = fermion_mass_identity(ps, fs, COUPLINGS)
        identity_resid = max(identity_resid, lhs.max_abs_diff(rhs))
        # base part of the matrix form against the closed formula
        p3 = ps.psi[2].grade(0)
        el = [fs.el[s].grade(0) for s in range(2)]
        er = [fs.er[s].grade(0) for s in range(2)]
        er_el = sum(e.conjugate() * l for e, l in zip(er, el))
        el_er = sum(l.conjugate() * e for l, e in zip(el, er))
        pref = COUPLINGS.h_e * COUPLINGS.R / math.sqrt(1.0 + p3.real**2)
        oracle = pref * (er_el + el_er + 1j * p3 * (el_er - er_el))
        identity_resid = max(identity_resid, abs(lhs.grade(0) - oracle))
    rep = mass_spectrum(COUPLINGS)
    m_e_err = abs(rep.m_e - COUPLINGS.h_e * COUPLINGS.R) / (
        COUPLINGS.h_e * COUPLINGS.R
    )
    _verdict(9, "fermion sector",
             identity_resid <= 1e-12 and m_e_err <= 1e-12
             and rep.nu_mass_coefficient == 0.0,
             f"identity {identity_resid:.2e}, m_e rel {m_e_err:.2e}, "
             f"nu {rep.nu_mass_coefficient:.1e}")


def test_criterion_10_contraction_limit_equivalence():
    report = limit_consistency(COUPLINGS, seed=10)
    ok = (
        report["max_grade_diff"] <= 1e-7
        and report["scaling_exponent_error"] <= 1e-7
    )
    _verdict(10, "nilpotent vs extrapolated numeric runs", ok,
             f"max diff {report['max_grade_diff']:.2e}")


def test_criterion_11_cubic_terms():
    rng = np.random.default_rng(19)
    gauge, psicfg = random_bosonic_config(rng, amplitude=0.04)
    report = cubic_check(gauge, psicfg, COUPLINGS, seed=19)
    grade0 = abs(report["exact_grade0"])
    produced = (
        len(report["literal"]["terms"]) == 8
        and "rel_diff" in report["literal"]
    )
    # the rederived closed form must match the exact coefficient; the
    # literal transcription's diff is reported as data (its documented
    # discrepancy lives in the project notes, not in a patched formula)
    normative = report["normative"]["rel_diff"]
    ok = grade0 <= 1e-12 and produced and normative <= 1e-11
    _verdict(11, "cubic coefficient and term-by-term report", ok,
             f"grade0 {grade0:.1e}, closed-form rel {normative:.1e}, "
             f"literal rel {report['literal']['rel_diff']:.2e} (documented)")
