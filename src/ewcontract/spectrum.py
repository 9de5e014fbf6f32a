"""Small-field expansion of the exact Lagrangian and what it implies.

The expansion coefficients are computed exactly: the density is evaluated
once on field samples multiplied by the field-scale variable eps of the
jet ring, and the coefficient of eps**n is read off like a grade of j.
That expansion is the normative definition of every derived quantity
(masses, quadratic form, cubic terms); closed formulas are cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fields import (
    ConfigError,
    Couplings,
    PlaneWave,
    Sample,
    constant,
    phi_from_psi,
    sample_fermions,
    sample_gauge,
    sample_psi,
)
from .jets import DEFAULT_ORDER, Jet
from .lagrangian import lagrangian_bosonic, lagrangian_fermion

MAX_EXPANSION_ORDER = 6
#: truncation of every mass evaluation: W's j^2 is the deepest grade a
#: mass reads, and no coefficient up to it depends on the truncation
MASS_ORDER = 2
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
        perms = rng.permuted(perms, axis=1)
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
    result is eps column p of its value's block, the jet-valued
    coefficient of eps**p with the value's batch axes, for p = 0..n. A
    power beyond the block (a value that stops below eps**n, or has no
    eps terms) is an exact zero jet."""
    if n < 0 or n > MAX_EXPANSION_ORDER:
        raise ConfigError(
            f"expansion order must be between 0 and {MAX_EXPANSION_ORDER}"
        )
    value = evaluator(Jet([[0.0, 1.0]], order, n))
    return [Jet(value.block[..., p:p + 1], value.order) for p in range(n + 1)]


# ---------------------------------------------------------------------------
# physical field combinations
# ---------------------------------------------------------------------------


def physical_fields(gs: Sample, ps: Sample, c: Couplings) -> Tuple[Jet, Jet, Jet, Jet]:
    """W+, W-, Z and A 4-vectors [..., mu], as graded jet values.

    The linear combinations diagonalize the quadratic Lagrangian of this
    package's (pushforward-consistent) conventions: the massive neutral
    field is proportional to g A^3 + g' B + 2 d(psi_3) and the massless
    one to g' A^3 - g B. W+- carry grade 1, Z and A grade 0.
    """
    inv_rt2 = 1.0 / math.sqrt(2.0)
    a, dp = gs.value, ps.grad
    hat1 = a[..., 0, :] + (2.0 / c.g) * dp[..., 0, :]
    hat2 = a[..., 1, :] - (2.0 / c.g) * dp[..., 1, :]
    return (
        inv_rt2 * (hat1 - 1j * hat2),
        inv_rt2 * (hat1 + 1j * hat2),
        (1.0 / c.gz) * (c.g * a[..., 2, :] + c.gp * a[..., 3, :] + 2.0 * dp[..., 2, :]),
        (1.0 / c.gz) * (c.gp * a[..., 2, :] - c.g * a[..., 3, :]),
    )


def _abelian_curls(gs: Sample, c: Couplings):
    """Curls [..., mu, nu] of the physical combinations W+, W-, Z and A;
    second derivatives of psi drop out of every antisymmetrized
    derivative, so only gauge curls enter."""
    curls = gs.grad - gs.grad.swapaxes(-1, -2)
    c1, c2, c3, bcurl = (curls[..., k, :, :] for k in range(4))
    inv_rt2 = 1.0 / math.sqrt(2.0)
    return (inv_rt2 * (c1 - 1j * c2), inv_rt2 * (c1 + 1j * c2),
            (1.0 / c.gz) * (c.g * c3 + c.gp * bcurl),
            (1.0 / c.gz) * (c.gp * c3 - c.g * bcurl))


def quadratic_form(gs: Sample, ps: Sample, c: Couplings) -> Jet:
    """Independent construction of the quadratic density:
    -1/4 F^2 - 1/4 Z^2 + (m_Z^2/2) Z_mu^2 - 1/2 W+_{mn} W-_{mn}
    + m_W^2 W+_mu W-_mu, with the closed-formula masses."""
    wplus, wminus, z, _ = physical_fields(gs, ps, c)
    wp, wm, zc, ac = _abelian_curls(gs, c)
    m_w2 = (c.R * c.g / 2.0) ** 2
    m_z2 = (c.R * c.gz / 2.0) ** 2
    curls = -0.25 * (ac * ac) - 0.25 * (zc * zc) - 0.5 * (wp * wm)
    masses = (m_z2 / 2.0) * (z * z) + m_w2 * (wplus * wminus)
    return curls.sum((-2, -1)) + masses.sum(-1)


# ---------------------------------------------------------------------------
# random configurations (shared by checks and the CLI)
# ---------------------------------------------------------------------------


def random_plane_wave(rng: np.random.Generator, amplitude: float,
                      shape: Tuple[int, ...] = ()) -> PlaneWave:
    """Random waves over `shape`, whose leading axis may count samples, from
    one rng.normal block of seven normals per wave in row-major order: the
    amplitude, the wavevector, then two whose angle is the phase (uniform
    on (-pi, pi]). On a stream that draws nothing else, rows drawn in two
    calls are those drawn in one, and the first m rows of n are a draw of m."""
    normals = rng.normal(size=(*shape, 7))
    return PlaneWave(normals[..., 0] * amplitude, normals[..., 1:5] * 0.6,
                     np.arctan2(normals[..., 5], normals[..., 6]))


def random_bosonic_config(rng: np.random.Generator,
                          amplitude: float = 0.05) -> Tuple[PlaneWave, PlaneWave]:
    """One random gauge field over (A^1, A^2, A^3, B) x mu, shape (4, 4),
    then sphere coordinates, shape (3,), a random_plane_wave block each from
    rng: `expand` passes default_rng(seed), and a suite a stream of its own."""
    return (random_plane_wave(rng, amplitude, (4, 4)),
            random_plane_wave(rng, amplitude, (3,)))


def bosonic_density_evaluator(
    gauge: PlaneWave,
    psi: PlaneWave,
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


def background_coefficients(c: Couplings, gauge: Optional[np.ndarray] = None,
                            leptons: Optional[np.ndarray] = None,
                            jval: Optional[float] = None) -> Jet:
    """eps^2 coefficients of the density on constant backgrounds at psi = 0
    and x = 0, from one density evaluation: batch item i is background i.
    Gauge backgrounds are time components over (A^1, A^2, A^3, B) and lepton
    ones upper spinor components over (e_l, nu_l, e_r). Without leptons,
    the (B, 4) gauge backgrounds carry eps and enter lagrangian_bosonic
    alone; with (B, 3) leptons, those carry eps and enter
    lagrangian_fermion in one fixed gauge background (4,), 0 when not given."""
    x = np.zeros(4)
    ps = sample_psi(constant(np.zeros(3)), x, MASS_ORDER, jval)
    field = constant((np.zeros(4) if gauge is None else np.asarray(gauge))[..., None]
                     * np.eye(4)[0])

    def evaluate(scale: Jet) -> Jet:
        if leptons is None:
            return lagrangian_bosonic(sample_gauge(field, x, MASS_ORDER, jval, scale), ps, c)
        fs = sample_fermions(constant(np.asarray(leptons)[..., None] * np.eye(2)[0]),
                             x, MASS_ORDER, jval, scale)
        gs = sample_gauge(field, x, MASS_ORDER, jval)
        return lagrangian_fermion(fs, phi_from_psi(ps, c.R).value, gs, c)

    return epsilon_expand(evaluate, 2, MASS_ORDER)[2]


def closed_masses(c: Couplings) -> Dict[str, float]:
    """The closed formulas the extracted masses are checked against."""
    return {"m_w": c.R * c.g / 2.0, "m_z": c.R * c.gz / 2.0, "m_a": 0.0,
            "m_e": c.h_e * c.R, "weinberg_cos": c.g / c.gz}


def gauge_masses(c: Couplings) -> Tuple[float, float, float]:
    """m_W, m_Z and m_A from the bosonic density on constant backgrounds
    along the W, Z and A directions, read grade by grade."""
    backgrounds = np.array([[1.0, 0.0, 0.0, 0.0],
                            [0.0, 0.0, c.g / c.gz, c.gp / c.gz],
                            [0.0, 0.0, c.gp / c.gz, -c.g / c.gz]])
    w_coeff, z_coeff, a_coeff = background_coefficients(c, backgrounds).coeffs[..., 0]
    # unit W background: W+ W- = 1/2, so the coefficient is m_W^2 / 2
    return (math.sqrt(max(2.0 * w_coeff[2].real, 0.0)),
            math.sqrt(max(2.0 * z_coeff[0].real, 0.0)),
            math.sqrt(abs(2.0 * a_coeff[0].real)))


def lepton_masses(c: Couplings) -> Tuple[float, float]:
    """m_e and the neutrino's mass coefficient from the fermion density on
    unit spinor backgrounds (both 0 when h_e = 0)."""
    if c.h_e == 0.0:
        return 0.0, 0.0
    leptons = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])  # over (e_l, nu_l, e_r)
    e_coeff, nu_coeff = background_coefficients(c, leptons=leptons).grade(0)
    # mass term -m_e (e_r+ e_l + e_l+ e_r) = -2 m_e on unit spinors
    return float(-0.5 * e_coeff.real), float(abs(nu_coeff))


def mass_spectrum(c: Couplings) -> SpectrumReport:
    """Extract m_W, m_Z, m_A (and m_e when h_e > 0) from the exact
    Lagrangian on constant backgrounds along each physical direction."""
    m_w, m_z, m_a = gauge_masses(c)
    m_e, nu_mass = lepton_masses(c)
    return SpectrumReport(m_w, m_z, m_a, m_e, m_w / m_z, nu_mass, closed_masses(c))


# ---------------------------------------------------------------------------
# cubic terms
# ---------------------------------------------------------------------------


def _components(ps: Sample) -> Tuple[Jet, ...]:
    """psi_1, psi_2, psi_3 and the gradients d psi_1, d psi_2, d psi_3."""
    return tuple(ps.value[..., k] for k in range(3)) + tuple(
        ps.grad[..., k, :] for k in range(3))


def normative_cubic_terms(gs: Sample, ps: Sample, c: Couplings) -> Dict[str, Jet]:
    """Third-order terms of this package's Lagrangian in its own physical
    fields and field conventions, rederived from the exact expansion; the
    cubic suite checks their sum against the exact eps^3 coefficient."""
    wp, wm, z, a = physical_fields(gs, ps, c)
    wpc, wmc, zc, ac = _abelian_curls(gs, c)
    psi1, psi2, psi3, dp1, dp2, dp3 = _components(ps)
    rt2 = math.sqrt(2.0)
    gz = c.gz
    plus, minus = dp2 + 1j * dp1, dp2 - 1j * dp1
    n_vec = (1.0 / gz) * (c.g * z + c.gp * a)
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
    neutral = (c.gp / gz) * (c.g * a - c.gp * z)
    lower, upper = (psi2 - 1j * psi1)[..., None], (psi2 + 1j * psi1)[..., None]
    terms["P3_wplus_block"] = pref * (wp * (
        -1.0 * (psi3[..., None] * plus) + ratio * (upper * dp3)
        - neutral * upper)).sum(-1)
    terms["P3_wminus_block"] = pref * (wm * (
        -1.0 * (psi3[..., None] * minus) + ratio * (lower * dp3)
        - neutral * lower)).sum(-1)
    terms["P3_z_block"] = pref * (rt2 * gz / c.g) * (
        z * (psi1[..., None] * dp2 - psi2[..., None] * dp1)).sum(-1)
    return terms


# ---------------------------------------------------------------------------
# contraction-limit consistency
# ---------------------------------------------------------------------------


def extrapolate_even(values: Sequence[complex]) -> Tuple[complex, complex]:
    """Given f(t) = a0 + a2 t^2 + a4 t^4 sampled at the three t of
    LIMIT_T_VALUES, in that order, return (a0, a2) by Lagrange
    interpolation in s = t^2 (exact for this form), real and imaginary
    parts as two real columns: numpy divides complex by real through the
    reciprocal, which rounds differently."""
    s = np.asarray([t * t for t in LIMIT_T_VALUES], dtype=float)

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
