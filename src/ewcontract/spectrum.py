"""Small-field expansion of the exact Lagrangian and what it implies.

The expansion coefficients are computed exactly: the density is evaluated
once on field samples multiplied by the field-scale variable eps of the
jet ring, and the coefficient of eps**n is read off like a grade of j.
That expansion is the normative definition of every derived quantity
(masses, quadratic form, cubic terms); closed formulas are cross-checks.
Printed third-order displays are transcribed literally and treated as
claims under test against the exact coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fields import (
    ConfigError,
    Couplings,
    FermionConfig,
    GaugeConfig,
    GaugeSample,
    PlaneWave,
    PsiConfig,
    PsiSample,
    constant,
    sample_fermions,
    sample_gauge,
    sample_psi,
    stack_configs,
)
from .jets import DEFAULT_ORDER, Jet
from .lagrangian import (
    lagrangian_bosonic,
    lagrangian_fermion,
    phi_from_psi,
)

MAX_EXPANSION_ORDER = 6
SPACETIME_SAMPLES = 16
LIMIT_T_VALUES = (1.0e-1, 1.0e-2, 1.0e-3)


# ---------------------------------------------------------------------------
# extraction machinery
# ---------------------------------------------------------------------------


def halton_points(count: int = SPACETIME_SAMPLES, seed: int = 0) -> np.ndarray:
    """Quasi-random spacetime points in [-1, 1]^4: the Halton
    sequence in bases 2, 3, 5 and 7 with Owen's random-permutation
    scrambling (A. B. Owen, arXiv:1706.02808), the bits that
    ``scipy.stats.qmc.Halton(d=4, scramble=True, seed=seed)`` draws.

    Digit r of every index in base b is permuted by row r of a table of
    shuffled rows of arange(b), one table per base, drawn in base order;
    the permuted digits are weighted by b**-(r + 1) and summed from the
    leading digit on."""
    rng = np.random.default_rng(seed)
    index = np.arange(count)[:, None]
    columns = []
    for base in (2, 3, 5, 7):
        rows = math.ceil(54 / math.log2(base)) - 1
        perms = np.repeat(np.arange(base)[None], rows, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        digits = index // base ** np.arange(rows) % base
        weights = np.empty(rows)
        weight = 1.0
        for r in range(rows):
            weight /= base
            weights[r] = weight
        terms = perms[np.arange(rows), digits] * weights
        # a running sum keeps the left-to-right order; np.sum pairs terms
        columns.append(np.cumsum(terms, axis=1)[:, -1])
    return (np.stack(columns, axis=1) - 0.5) * 2.0


def epsilon_expand(evaluator: Callable[[Jet], Jet], n: int,
                   order: int = DEFAULT_ORDER) -> List[Jet]:
    """Exact eps-polynomial coefficients of a density evaluator.

    The evaluator is called once, with the eps variable (a jet of j order
    `order` truncated beyond eps**n) as its one argument; item p of the
    result is eps column p of its value, the jet-valued coefficient of
    eps**p, for p = 0..n."""
    if n < 0 or n > MAX_EXPANSION_ORDER:
        raise ConfigError(
            f"expansion order must be between 0 and {MAX_EXPANSION_ORDER}"
        )
    value = evaluator(Jet([[0.0, 1.0]], order, n))
    columns = Jet(value.coeffs, value.order, n).coeffs
    return [Jet(columns[..., p:p + 1], value.order) for p in range(n + 1)]


# ---------------------------------------------------------------------------
# physical field combinations
# ---------------------------------------------------------------------------


@dataclass
class PhysicalFields:
    """W+-, Z and A 4-vectors [..., mu], as graded jet values.

    The linear combinations diagonalize the quadratic Lagrangian of this
    package's (pushforward-consistent) conventions: the massive neutral
    field is proportional to g A^3 + g' B + 2 d(psi_3) and the massless
    one to g' A^3 - g B. W+- carry grade 1, Z and A grade 0.
    """

    wplus: Jet
    wminus: Jet
    z: Jet
    a: Jet


def physical_fields(gs: GaugeSample, ps: PsiSample, c: Couplings) -> PhysicalFields:
    inv_rt2 = 1.0 / math.sqrt(2.0)
    a, dp = gs.a, ps.dpsi
    hat1 = a[..., 0, :] + (2.0 / c.g) * dp[..., 0, :]
    hat2 = a[..., 1, :] - (2.0 / c.g) * dp[..., 1, :]
    return PhysicalFields(
        inv_rt2 * (hat1 - 1j * hat2),
        inv_rt2 * (hat1 + 1j * hat2),
        (1.0 / c.gz) * (c.g * a[..., 2, :] + c.gp * gs.b + 2.0 * dp[..., 2, :]),
        (1.0 / c.gz) * (c.gp * a[..., 2, :] - c.g * gs.b),
    )


def _abelian_curls(gs: GaugeSample, c: Couplings, b_sign: float = 1.0):
    """Curls [..., mu, nu] of the physical combinations W+, W-, Z and A;
    second derivatives of psi drop out of every antisymmetrized
    derivative, so only gauge curls enter. b_sign = -1 gives the printed
    convention, with B entering Z and A with the opposite sign."""
    curls = gs.da - gs.da.swapaxes(-1, -2)
    bcurl = gs.db - gs.db.swapaxes(-1, -2)
    c1, c2, c3 = curls[..., 0, :, :], curls[..., 1, :, :], curls[..., 2, :, :]
    inv_rt2 = 1.0 / math.sqrt(2.0)
    gp_b, g_b = b_sign * c.gp, b_sign * c.g
    return (inv_rt2 * (c1 - 1j * c2), inv_rt2 * (c1 + 1j * c2),
            (1.0 / c.gz) * (c.g * c3 + gp_b * bcurl),
            (1.0 / c.gz) * (c.gp * c3 - g_b * bcurl))


def quadratic_form(gs: GaugeSample, ps: PsiSample, c: Couplings) -> Jet:
    """Independent construction of the quadratic density:
    -1/4 F^2 - 1/4 Z^2 + (m_Z^2/2) Z_mu^2 - 1/2 W+_{mn} W-_{mn}
    + m_W^2 W+_mu W-_mu, with the closed-formula masses."""
    pf = physical_fields(gs, ps, c)
    wp, wm, zc, ac = _abelian_curls(gs, c)
    m_w2 = (c.R * c.g / 2.0) ** 2
    m_z2 = (c.R * c.gz / 2.0) ** 2
    curls = -0.25 * (ac * ac) - 0.25 * (zc * zc) - 0.5 * (wp * wm)
    masses = (m_z2 / 2.0) * (pf.z * pf.z) + m_w2 * (pf.wplus * pf.wminus)
    return curls.sum((-2, -1)) + masses.sum(-1)


# ---------------------------------------------------------------------------
# random configurations (shared by checks and the CLI)
# ---------------------------------------------------------------------------


def random_plane_wave(rng: np.random.Generator, amplitude: float,
                      shape: Tuple[int, ...] = ()) -> PlaneWave:
    """Random waves over components `shape`, drawn one component after
    the other in row-major order: five normals (amplitude, wavevector), then
    the phase, bit for bit rng.uniform(-pi, pi) from one rng.random()."""
    count = math.prod(shape)
    normals, phase = np.empty((count, 5)), np.empty(count)
    for row in range(count):
        normals[row] = rng.normal(size=5)
        phase[row] = -math.pi + 2 * math.pi * rng.random()
    return PlaneWave(normals[:, 0].reshape(shape) * amplitude,
                     normals[:, 1:].reshape(shape + (4,)) * 0.6, phase.reshape(shape))


def random_bosonic_config(rng: np.random.Generator,
                          amplitude: float = 0.05) -> Tuple[GaugeConfig, PsiConfig]:
    gauge = GaugeConfig(random_plane_wave(rng, amplitude, (3, 4)),
                        random_plane_wave(rng, amplitude, (4,)))
    return gauge, PsiConfig(random_plane_wave(rng, amplitude, (3,)))


def bosonic_density_evaluator(
    gauge: GaugeConfig,
    psi: PsiConfig,
    c: Couplings,
    points: np.ndarray,
    order: int = DEFAULT_ORDER,
    jval: Optional[float] = None,
) -> Callable[[Jet], Jet]:
    """Point-averaged exact bosonic density as a function of the overall
    field scale (an eps jet): one density evaluation over all points."""

    def evaluate(scale: Jet) -> Jet:
        gs = sample_gauge(gauge, points, order, jval, scale)
        ps = sample_psi(psi, points, order, jval, scale=scale)
        return lagrangian_bosonic(gs, ps, c).mean()

    return evaluate


# ---------------------------------------------------------------------------
# mass spectrum
# ---------------------------------------------------------------------------


@dataclass
class SpectrumReport:
    """Masses extracted from the exact Lagrangian plus closed-formula
    cross-checks; its fields are the keys of a spectrum report."""

    m_w: float
    m_z: float
    m_a: float
    m_e: float
    weinberg_cos: float
    nu_mass_coefficient: float
    closed_form: Dict[str, float]
    couplings: Couplings


def gauge_mass_coefficients(backgrounds: np.ndarray, c: Couplings, order: int,
                            jval: Optional[float] = None) -> Jet:
    """eps^2 coefficients of the bosonic density for constant gauge
    backgrounds at psi = 0: one density evaluation, batch item i being the
    background whose time components over (A^1, A^2, A^3, B) are
    backgrounds[i] (the backgrounds broadcast over one point)."""
    potentials = np.asarray(backgrounds)[..., None] * np.eye(4)[0]
    gauge = GaugeConfig(constant(potentials[:, :3]), constant(potentials[:, 3]))
    psi = PsiConfig.zero()
    x = np.zeros(4)

    def evaluate(scale: Jet) -> Jet:
        gs = sample_gauge(gauge, x, order, jval, scale)
        ps = sample_psi(psi, x, order, jval)
        return lagrangian_bosonic(gs, ps, c)

    return epsilon_expand(evaluate, 2, order)[2]


def _fermion_mass_coefficients(c: Couplings, order: int) -> Jet:
    """eps^2 coefficients of the fermion density for the constant unit
    spinor backgrounds at psi = 0: one density evaluation, batch item 0
    the electron pair and item 1 the lone neutrino (the stacked
    backgrounds broadcast over one point)."""
    zero_spinor = constant(np.zeros(2))
    unit_spinor = constant(np.array([1.0, 0.0]))
    cfg = stack_configs([FermionConfig(unit_spinor, zero_spinor, unit_spinor),
                         FermionConfig(zero_spinor, unit_spinor, zero_spinor)])
    x = np.zeros(4)
    gs = sample_gauge(GaugeConfig.zero(), x, order)
    ps = sample_psi(PsiConfig.zero(), x, order)
    phi, _ = phi_from_psi(ps, c.R)

    def evaluate(scale: Jet) -> Jet:
        fs = sample_fermions(cfg, x, order, scale=scale)
        return lagrangian_fermion(fs, phi, gs, c)

    return epsilon_expand(evaluate, 2, order)[2]


def closed_masses(c: Couplings) -> Dict[str, float]:
    """The closed formulas the extracted masses are checked against."""
    return {"m_w": c.R * c.g / 2.0, "m_z": c.R * c.gz / 2.0, "m_a": 0.0,
            "m_e": c.h_e * c.R, "weinberg_cos": c.g / c.gz}


def gauge_masses(c: Couplings, order: int = DEFAULT_ORDER) -> Tuple[float, float, float]:
    """m_W, m_Z and m_A from the bosonic density on constant backgrounds
    along the W, Z and A directions, read grade by grade."""
    backgrounds = np.array([[1.0, 0.0, 0.0, 0.0],
                            [0.0, 0.0, c.g / c.gz, c.gp / c.gz],
                            [0.0, 0.0, c.gp / c.gz, -c.g / c.gz]])
    w_coeff, z_coeff, a_coeff = gauge_mass_coefficients(
        backgrounds, c, order).coeffs[..., 0]
    # unit W background: W+ W- = 1/2, so the coefficient is m_W^2 / 2
    return (math.sqrt(max(2.0 * w_coeff[2].real, 0.0)),
            math.sqrt(max(2.0 * z_coeff[0].real, 0.0)),
            math.sqrt(abs(2.0 * a_coeff[0].real)))


def lepton_masses(c: Couplings, order: int = DEFAULT_ORDER) -> Tuple[float, float]:
    """m_e and the neutrino's mass coefficient from the fermion density on
    unit spinor backgrounds (both 0 when h_e = 0)."""
    if c.h_e == 0.0:
        return 0.0, 0.0
    e_coeff, nu_coeff = _fermion_mass_coefficients(c, order).grade(0)
    # mass term -m_e (e_r+ e_l + e_l+ e_r) = -2 m_e on unit spinors
    return float(-0.5 * e_coeff.real), float(abs(nu_coeff))


def mass_spectrum(c: Couplings, order: int = DEFAULT_ORDER) -> SpectrumReport:
    """Extract m_W, m_Z, m_A (and m_e when h_e > 0) from the exact
    Lagrangian on constant backgrounds along each physical direction."""
    m_w, m_z, m_a = gauge_masses(c, order)
    m_e, nu_mass = lepton_masses(c, order)
    return SpectrumReport(m_w, m_z, m_a, m_e, m_w / m_z, nu_mass, closed_masses(c), c)


# ---------------------------------------------------------------------------
# cubic terms
# ---------------------------------------------------------------------------


def _printed_physical_fields(gs: GaugeSample, ps: PsiSample, c: Couplings):
    """Field combinations exactly as displayed in the source material
    (these differ from physical_fields in the signs of the d psi_1 term of
    W+- and of B in Z and A); used only to transcribe the cubic claims."""
    inv_rt2 = 1.0 / math.sqrt(2.0)
    a, dp = gs.a, ps.dpsi
    hat1 = a[..., 0, :] - (2.0 / c.g) * dp[..., 0, :]
    hat2 = a[..., 1, :] - (2.0 / c.g) * dp[..., 1, :]
    return (
        inv_rt2 * (hat1 - 1j * hat2),
        inv_rt2 * (hat1 + 1j * hat2),
        (1.0 / c.gz) * (c.g * a[..., 2, :] - c.gp * gs.b + 2.0 * dp[..., 2, :]),
        (1.0 / c.gz) * (c.gp * a[..., 2, :] + c.g * gs.b),
    ) + _abelian_curls(gs, c, b_sign=-1.0)


def _components(ps: PsiSample) -> Tuple[Jet, ...]:
    """psi_1, psi_2, psi_3 and the gradients d psi_1, d psi_2, d psi_3."""
    return tuple(ps.psi[..., k] for k in range(3)) + tuple(
        ps.dpsi[..., k, :] for k in range(3))


def transcribed_cubic_terms(gs: GaugeSample, ps: PsiSample,
                            c: Couplings) -> Dict[str, Jet]:
    """Literal transcription of the printed third-order displays.

    Every spacetime index appearing in a printed product is summed over
    0..3, including the places where an index is repeated more than twice
    (written as explicit loops over that index); the transcription
    deliberately preserves such oddities (they are part of the claim
    being tested). Arrays are indexed [..., m] or [..., m, n]."""
    wp, wm, z, a, wpc, wmc, zc, ac = _printed_physical_fields(gs, ps, c)
    psi1, psi2, psi3, dp1, dp2, dp3 = _components(ps)
    rt2 = math.sqrt(2.0)
    gz = c.gz
    minus, plus = dp2 - 1j * dp1, dp2 + 1j * dp1
    neutral = c.gp * a + c.g * z
    ww = wmc * wp[..., :, None] - wpc * wm[..., :, None]
    bracket = wpc * minus[..., None, :] + wmc * plus[..., None, :]

    terms: Dict[str, Jet] = {}

    # gauge-sector display: overall prefactor -g/gz on five summands
    terms["A3_ww_neutral"] = (-c.g / gz) * (
        1j * (ww * neutral[..., None, :])).sum((-2, -1))
    terms["A3_wcurl_dpsi_neutral"] = (-c.g / gz) * (-(rt2 / c.g)) * (
        neutral[..., :, None] * bracket).sum((-2, -1))
    terms["A3_ww_dpsi3"] = (-c.g / gz) * (-2j * c.g / gz) * (
        ww * dp3[..., None, :]).sum((-2, -1))

    t = 0.0
    for n in range(4):  # n appears three times in each printed product
        t = t + (bracket[..., :, n] * dp3[..., n, None]).sum(-1)
    terms["A3_wcurl_dpsi_dpsi3"] = (-c.g / gz) * (-2.0 * rt2 / gz) * t

    ncurl = c.gp * ac + c.g * zc
    t = 0.0
    for m in range(4):  # m appears three times in the W W products
        wp_m, wm_m = wp[..., m, None], wm[..., m, None]
        inner = (0.25j * (wp_m * wp_m - wm_m * wm_m)
                 + (4.0 / c.g**2) * (dp1[..., m, None] * dp2)
                 + (rt2 / c.g) * (wp_m * minus + wm_m * plus))
        t = t + (ncurl[..., m, :] * inner).sum(-1)
    terms["A3_neutral_curl_block"] = (-c.g / gz) * t

    # matter-sector display: prefactor R^2 g / (2 sqrt(2))
    pref = c.R**2 * c.g / (2.0 * rt2)
    ratio = (c.g**2 - c.gp**2) / (c.g**2 + c.gp**2)
    neutral = (c.gp * (c.g * a - c.gp * z)) / gz
    lower, upper = (psi2 - 1j * psi1)[..., None], (psi2 + 1j * psi1)[..., None]
    terms["P3_wplus_block"] = pref * (wp * (
        psi3[..., None] * minus - ratio * (lower * dp3) + neutral * lower)).sum(-1)
    terms["P3_wminus_block"] = pref * (wm * (
        psi3[..., None] * plus - ratio * (upper * dp3) + neutral * upper)).sum(-1)
    terms["P3_z_block"] = pref * (gz / c.g) * (
        z * (psi1[..., None] * dp2 - psi2[..., None] * dp1)).sum(-1)
    return terms


def normative_cubic_terms(gs: GaugeSample, ps: PsiSample,
                          c: Couplings) -> Dict[str, Jet]:
    """Third-order terms of this package's Lagrangian in its own physical
    fields, derived from the exact expansion (see the project notes for
    the relation to the printed displays: two typo-level corrections plus
    the sign conventions of physical_fields)."""
    pf = physical_fields(gs, ps, c)
    wp, wm = pf.wplus, pf.wminus
    wpc, wmc, zc, ac = _abelian_curls(gs, c)
    psi1, psi2, psi3, dp1, dp2, dp3 = _components(ps)
    rt2 = math.sqrt(2.0)
    gz = c.gz
    plus, minus = dp2 + 1j * dp1, dp2 - 1j * dp1
    n_vec = (1.0 / gz) * (c.g * pf.z + c.gp * pf.a)
    ww = wmc * wp[..., :, None] - wpc * wm[..., :, None]
    bracket = wpc * plus[..., None, :] + wmc * minus[..., None, :]
    ncurl = (1.0 / gz) * (c.g * zc + c.gp * ac)

    mn = (-2, -1)  # the summed index pair m, n
    terms: Dict[str, Jet] = {
        "A3_ww_neutral": 1j * c.g * (ww * n_vec[..., None, :]).sum(mn),
        "A3_wcurl_dpsi_neutral": -rt2 * (n_vec[..., :, None] * bracket).sum(mn),
        "A3_ww_dpsi3": (-2j * c.g**2 / gz**2) * (ww * dp3[..., None, :]).sum(mn),
        "A3_wcurl_dpsi_dpsi3":
            (2.0 * rt2 * c.g / gz**2) * (bracket.sum(-1) * dp3).sum(-1),
        "A3_neutral_ww":
            -1j * c.g * (ncurl * (wp[..., :, None] * wm[..., None, :])).sum(mn),
        "A3_neutral_w_dpsi": rt2 * (ncurl * (
            wp[..., :, None] * plus[..., None, :]
            + wm[..., :, None] * minus[..., None, :])).sum(mn),
        "A3_neutral_dpsi_dpsi":
            (-4.0 / c.g) * (ncurl * (dp1[..., :, None] * dp2[..., None, :])).sum(mn),
    }

    pref = c.R**2 * c.g / (2.0 * rt2)
    ratio = (c.g**2 - c.gp**2) / (c.g**2 + c.gp**2)
    neutral = (c.gp / gz) * (c.g * pf.a - c.gp * pf.z)
    lower, upper = (psi2 - 1j * psi1)[..., None], (psi2 + 1j * psi1)[..., None]
    terms["P3_wplus_block"] = pref * (wp * (
        -1.0 * (psi3[..., None] * plus) + ratio * (upper * dp3)
        - neutral * upper)).sum(-1)
    terms["P3_wminus_block"] = pref * (wm * (
        -1.0 * (psi3[..., None] * minus) + ratio * (lower * dp3)
        - neutral * lower)).sum(-1)
    terms["P3_z_block"] = pref * (rt2 * gz / c.g) * (
        pf.z * (psi1[..., None] * dp2 - psi2[..., None] * dp1)).sum(-1)
    return terms


# ---------------------------------------------------------------------------
# contraction-limit consistency
# ---------------------------------------------------------------------------


def extrapolate_even(values: Sequence[complex], ts: Sequence[float] = LIMIT_T_VALUES
                     ) -> Tuple[complex, complex]:
    """Given f(t) = a0 + a2 t^2 + a4 t^4 sampled at three t values, return
    (a0, a2) by Lagrange interpolation in s = t^2 (exact for this form),
    real and imaginary parts as two real columns: numpy divides complex by
    real through the reciprocal, which rounds differently."""
    s = np.asarray([t * t for t in ts], dtype=float)

    def at_zero(y: np.ndarray) -> np.ndarray:
        total = 0.0
        for i in range(len(s)):
            w = 1.0
            for k in range(len(s)):
                if k != i:
                    w *= (0.0 - s[k]) / (s[i] - s[k])
            total += y[i] * w
        return total

    y = np.stack([np.real(values), np.imag(values)], axis=-1)
    a0 = at_zero(y)
    a2 = at_zero((y - a0) / s[:, None])
    return complex(*a0), complex(*a2)
