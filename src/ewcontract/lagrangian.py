"""Lagrangian densities: gauge sector, matter sector in both coordinate
systems, and the fermion sector, evaluated as jets at spacetime points.

Component formulas are normative; the matrix/trace forms are kept as
independent cross-check routes and never share code with the component
path. Every density returns its value as a jet; a check that needs one
sector on its own calls that sector's density.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .fields import (
    Couplings,
    FermionConfig,
    FermionSample,
    GaugeConfig,
    GaugeSample,
    PsiSample,
    generator_vector_fields,
    phi_from_psi,
)
from .jets import Jet, JetMatrix2, stack
from .group import PAULI

#: sigma^mu[t, s] as [t, s, mu]: (1, tau_1, tau_2, tau_3); its tilde
#: form flips the sign of the spatial matrices
_SIGMA = np.stack((np.eye(2),) + PAULI, axis=-1)
_SIGMA_TILDE = _SIGMA * np.array([1.0, -1.0, -1.0, -1.0])


def _su2_matrix(x: Jet, axis: int) -> Jet:
    """(i/2) sum_k x^k tau_k from the constant Pauli matrices: the su(2)
    component axis `axis` of x (negative, counted among its batch axes)
    becomes trailing (2, 2) matrix axes."""
    tau = np.stack(PAULI).reshape((3,) + (1,) * (-axis - 1) + (2, 2))
    return 0.5j * (x[..., None, None] * tau).sum(axis - 2)


# ---------------------------------------------------------------------------
# gauge sector
# ---------------------------------------------------------------------------


def stress_tensors(gs: GaugeSample, c: Couplings, k: "int | np.ndarray") -> Jet:
    """F^k[..., mu, nu] = dA^k - dA^k + g(A^l A^m - A^m A^l) for
    (k, l, m) = (1, 3, 2) and cyclic, graded and antisymmetric, for one
    su(2) direction k (0-based), or for an index array of them on an axis
    before mu, nu.

    The quadratic sign is fixed by the matrix definition
    F = dA - dA + [A, A] together with the commutation table
    ([T2, T3] = -T1 and cyclic); first-order gauge invariance of the
    Yang-Mills density holds only with this orientation. Written at j=1
    over graded samples: the j^2 on the quadratic part of F^3 appears
    because A^1, A^2 carry grade 1.
    """
    k = np.asarray(k)
    half = gs.da[..., k, :, :] + (
        (c.g * gs.a[..., (k + 2) % 3, :, None]) * gs.a[..., (k + 1) % 3, None, :])
    return half - half.swapaxes(-1, -2)


def lagrangian_gauge(gs: GaugeSample, c: Couplings) -> Jet:
    """-1/4 sum_k (F^k)^2 - 1/4 B^2 (component form, normative), one su(2)
    direction at a time: the whole (..., 3, 4, 4) field strength is never
    held (at the expand command's 16 points and order 8 it would raise
    the process's peak memory by about a tenth)."""
    total = 0.0
    for k in range(3):
        F = stress_tensors(gs, c, k)
        total = total + (F * F).sum((-2, -1))
    B = gs.db - gs.db.swapaxes(-1, -2)
    return -0.25 * (total + (B * B).sum((-2, -1)))


def lagrangian_gauge_trace(gs: GaugeSample, c: Couplings) -> Jet:
    """Trace-form oracle: (1/2g^2) tr F^2 + (1/2g'^2) tr Bhat^2.

    The matrix field strength is assembled from the connection matrices
    g (i/2) A^k tau_k themselves, F = dA - dA + [A, A], so this route is
    independent of the component formulas in stress_tensors."""
    amat = JetMatrix2(c.g * _su2_matrix(gs.a, -2))  # [..., mu]
    a_mu = JetMatrix2(amat.jet[..., :, None, :, :])
    a_nu = JetMatrix2(amat.jet[..., None, :, :, :])
    curl = JetMatrix2(c.g * _su2_matrix(gs.da - gs.da.swapaxes(-1, -2), -3))
    fmat = curl + a_mu.commutator(a_nu)
    bval = c.gp * 0.5j * (gs.db - gs.db.swapaxes(-1, -2))
    bsq = bval * bval
    return ((0.5 / c.g**2) * (fmat * fmat).trace()
            + (0.5 / c.gp**2) * (bsq + bsq)).sum((-2, -1))


# ---------------------------------------------------------------------------
# matter sector, doublet coordinates
# ---------------------------------------------------------------------------


def covariant_derivative_phi(phi: Jet, dphi: Jet, gs: GaugeSample,
                             c: Couplings) -> Jet:
    """Component form, D phi[..., comp, mu]:
      D phi_1 = d phi_1 + (i/2)(g A^3 + g' B) phi_1 + (ig/2)(A^1 - iA^2) phi_2
      D phi_2 = d phi_2 - (i/2)(g A^3 - g' B) phi_2 + (ig/2)(A^1 + iA^2) phi_1
    over graded values (the first mixing term is then grade 2)."""
    a1, a2, a3 = gs.a[..., 0, :], gs.a[..., 1, :], gs.a[..., 2, :]
    p1, p2 = phi[..., 0, None], phi[..., 1, None]
    return dphi + 0.5j * stack([
        (c.g * a3 + c.gp * gs.b) * p1 + c.g * ((a1 - 1j * a2) * p2),
        -((c.g * a3 - c.gp * gs.b) * p2) + c.g * ((a1 + 1j * a2) * p1),
    ], axis=-2)


def covariant_derivative_phi_matrix(phi: Jet, dphi: Jet, gs: GaugeSample,
                                    c: Couplings) -> Jet:
    """Matrix-action oracle: D phi = d phi + (g sum_k T_k A^k + g' Y B) phi,
    with T_k = (i/2) tau_k and Y = (i/2) 1."""
    m = JetMatrix2(c.g * _su2_matrix(gs.a, -2)
                   + (0.5j * c.gp) * (gs.b[..., None, None] * np.eye(2)))
    return dphi + m.apply(phi[..., None, :]).swapaxes(-1, -2)


def lagrangian_phi(phi: Jet, dphi: Jet, gs: GaugeSample, c: Couplings) -> Jet:
    """(1/2) (D_mu phi)^dagger D_mu phi, no potential term."""
    d = covariant_derivative_phi(phi, dphi, gs, c)
    return 0.5 * (d.conjugate() * d).sum((-2, -1))


# ---------------------------------------------------------------------------
# matter sector, sphere coordinates
# ---------------------------------------------------------------------------


def covariant_derivative_psi(ps: PsiSample, gs: GaugeSample, c: Couplings) -> Jet:
    """D_mu psi_k = d_mu psi_k + g sum_a X_a(psi)_k A^a_mu + g' X_Y(psi)_k B_mu
    as D[..., k, mu] (component form, normative), one generator at a time:
    a contraction over all four raises expand's traced peak by a third."""
    X = generator_vector_fields(ps.psi)
    d = ps.dpsi
    for a in range(4):
        field = c.g * gs.a[..., a, :] if a < 3 else c.gp * gs.b
        d = d + X[..., a, :, None] * field[..., None, :]
    return d


def lagrangian_psi(ps: PsiSample, gs: GaugeSample, c: Couplings) -> Jet:
    """(R^2/2) sum_kl g_kl D psi_k D psi_l (metric form, normative) with the
    sphere metric in intrinsic coordinates
    g_kl = [(1 + psi^2) delta_kl - psi_k psi_l] / (1 + psi^2)^2,
    evaluated on graded values (reproducing the displayed j-pattern) and
    contracted one metric row at a time; the closed rational form
    lagrangian_psi_closed must agree grade-wise."""
    d = covariant_derivative_psi(ps, gs, c)
    v = ps.psi
    s = 1.0 + (v * v).sum(-1)
    total = 0.0
    for k in range(3):
        row = s[..., None] * np.eye(3)[k] - v[..., k, None] * v  # (1 + psi^2)^2 g_kl
        total = total + ((row[..., None] * d).sum(-2) * d[..., k, :]).sum(-1)
    return 0.5 * c.R**2 * (total * (s * s).inv())


def lagrangian_psi_closed(ps: PsiSample, gs: GaugeSample, c: Couplings) -> Jet:
    """Closed form: R^2 [(1+psi^2)(D psi)^2 - (psi . D psi)^2] / (2 (1+psi^2)^2)."""
    d = covariant_derivative_psi(ps, gs, c)
    v = ps.psi
    s = 1.0 + (v * v).sum(-1)
    dot = (v[..., None] * d).sum(-2)
    dsq = (d * d).sum((-2, -1))
    return 0.5 * c.R**2 * ((s * dsq - (dot * dot).sum(-1)) * (s * s).inv())


# ---------------------------------------------------------------------------
# fermion sector
# ---------------------------------------------------------------------------


def _spinor_bilinear(x: Jet, y: Jet) -> Jet:
    """x^dagger y over the trailing 2 Lorentz-spinor components."""
    return (x.conjugate() * y).sum(-1)


def _kinetic(spinor: Jet, d: Jet, sigma: np.ndarray) -> Jet:
    """i spinor^dagger sigma^mu D_mu spinor, summed over mu, for the
    covariant derivative d[..., s, mu]."""
    acted = (d[..., None, :, :] * sigma).sum(-2)  # [..., t, mu]
    return 1j * (spinor.conjugate()[..., None] * acted).sum((-2, -1))


def covariant_derivative_doublet(fs: FermionSample, gs: GaugeSample,
                                 c: Couplings) -> Tuple[Jet, Jet]:
    """Covariant derivative of the lepton doublet (e_l, nu) as
    (D e_l[..., s, mu], D nu[..., s, mu]): each Lorentz spinor component s
    is an SU(2) doublet, acted on exactly like the scalar doublet. Both
    components go through one covariant_derivative_phi on the doublet
    [..., s, comp], the gauge sample broadcast over s, so each value takes
    the same scalar operations as one component at a time would."""
    over_s = GaugeSample(a=gs.a[..., None, :, :], da=gs.da[..., None, :, :, :],
                         b=gs.b[..., None, :], db=gs.db[..., None, :, :])
    d = covariant_derivative_phi(stack([fs.el, fs.nu]),
                                 stack([fs.d_el, fs.d_nu], axis=-2), over_s, c)
    return d[..., 0, :], d[..., 1, :]


def yukawa_matrix_form(phi: Jet, fs: FermionSample, h_e: float) -> Jet:
    """h_e [ e_r^dagger (phi^dagger L_l) + (L_l^dagger phi) e_r ] with the
    SU(2) convolution (phi^dagger L_l) = conj(phi_1) e_l + conj(phi_2) nu."""
    conj = phi.conjugate()
    inner = conj[..., 0, None] * fs.el + conj[..., 1, None] * fs.nu
    return h_e * (_spinor_bilinear(fs.er, inner) + _spinor_bilinear(inner, fs.er))


def yukawa_expanded_form(ps: PsiSample, fs: FermionSample, c: Couplings) -> Jet:
    """Expanded mass terms:
      h_e R / sqrt(1 + psi^2) * { e_r+ e_l + e_l+ e_r
        + i psi_3 (e_l+ e_r - e_r+ e_l)
        + i psi_1 (nu+ e_r - e_r+ nu) + psi_2 (nu+ e_r + e_r+ nu) }
    in graded variables (the nu terms then carry grade 2)."""
    v = ps.psi
    pref = c.h_e * c.R * (1.0 + (v * v).sum(-1)).inv_sqrt()
    er_el = _spinor_bilinear(fs.er, fs.el)
    el_er = _spinor_bilinear(fs.el, fs.er)
    nu_er = _spinor_bilinear(fs.nu, fs.er)
    er_nu = _spinor_bilinear(fs.er, fs.nu)
    bracket = (
        er_el
        + el_er
        + 1j * (v[..., 2] * (el_er - er_el))
        + 1j * (v[..., 0] * (nu_er - er_nu))
        + v[..., 1] * (nu_er + er_nu)
    )
    return pref * bracket


def fermion_mass_identity(ps: PsiSample, fs: FermionSample,
                          c: Couplings) -> Tuple[Jet, Jet]:
    """(matrix form, expanded form) of the Yukawa mass terms; they must
    agree grade-wise."""
    phi, _ = phi_from_psi(ps, c.R)
    lhs = yukawa_matrix_form(phi, fs, c.h_e)
    rhs = yukawa_expanded_form(ps, fs, c)
    return lhs, rhs


def lagrangian_fermion(fs: FermionSample, phi: Jet, gs: GaugeSample,
                       c: Couplings) -> Jet:
    """Kinetic terms L_l+ i tilde-tau_mu D_mu L_l + e_r+ i tau_mu D_mu e_r
    plus the Yukawa term -h_e[...], all graded."""
    d_el, d_nu = covariant_derivative_doublet(fs, gs, c)
    d_er = fs.d_er + 1j * c.gp * (gs.b[..., None, :] * fs.er[..., None])
    kinetic = (_kinetic(fs.el, d_el, _SIGMA_TILDE)
               + _kinetic(fs.nu, d_nu, _SIGMA_TILDE)
               + _kinetic(fs.er, d_er, _SIGMA))
    return kinetic - yukawa_matrix_form(phi, fs, c.h_e)


def fermion_kinetic_oracle(gauge: GaugeConfig, fcfg: FermionConfig, x: np.ndarray,
                           c: Couplings) -> np.ndarray:
    """Kinetic-term oracle in plain numpy at j = 1, one value per stacked
    configuration at the points x (N, 4): L_l+ i sigma~^mu D_mu L_l with
    D_mu = d_mu + (i/2)(g A.tau + g' B) on L_l = (e_l, nu_l), plus
    e_r+ i sigma^mu (d_mu + i g' B) e_r; its Pauli matrices are its own."""
    tau = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    sigma = np.concatenate([np.eye(2)[None], tau])
    sigma_tilde = np.concatenate([np.eye(2)[None], -tau])
    xa, xc = x[:, None, None, :], x[:, None, :]
    A, B = gauge.A.value(xa), gauge.B.value(xc)  # [n, k, mu], [n, mu]
    L = np.stack([fcfg.e_l.value(xc), fcfg.nu_l.value(xc)], 1)  # [n, a, s]
    dL = np.stack([fcfg.e_l.grad(xc), fcfg.nu_l.grad(xc)], 1)  # [n, a, s, mu]
    er, der = fcfg.e_r.value(xc), fcfg.e_r.grad(xc)
    conn = 0.5j * (c.g * np.einsum("nkm,kab->nmab", A, tau)
                   + c.gp * B[..., None, None] * np.eye(2))
    DL = dL + np.einsum("nmab,nbs->nasm", conn, L)
    Der = der + 1j * c.gp * B[:, None, :] * er[..., None]
    return (np.einsum("nas,mst,natm->n", L.conj(), 1j * sigma_tilde, DL)
            + np.einsum("ns,mst,ntm->n", er.conj(), 1j * sigma, Der))


# ---------------------------------------------------------------------------
# full bosonic density
# ---------------------------------------------------------------------------


def lagrangian_bosonic(gs: GaugeSample, ps: PsiSample, c: Couplings) -> Jet:
    """L_A + L_psi, the gauge-invariant bosonic total."""
    return lagrangian_gauge(gs, c) + lagrangian_psi(ps, gs, c)
