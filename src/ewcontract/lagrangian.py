"""Lagrangian densities: gauge sector, matter sector in both coordinate
systems, and the fermion sector, evaluated as jets at spacetime points.

Component formulas are normative; the matrix/trace forms are kept as
independent cross-check routes and never share code with the component
path. Every density returns its value as a jet; a check that needs one
sector on its own calls that sector's density.
"""

from __future__ import annotations

import numpy as np

from .fields import Couplings, PlaneWave, Sample, generator_vector_fields, hermitian_form_jets
from .jets import Jet, JetMatrix2, contract, stack
from .group import PAULI

#: sigma^mu[t, s] as [t, s, mu]: (1, tau_1, tau_2, tau_3); its tilde
#: form flips the sign of the spatial matrices
_SIGMA = np.stack((np.eye(2),) + PAULI, axis=-1)
_SIGMA_TILDE = _SIGMA * np.array([1.0, -1.0, -1.0, -1.0])

#: the (mu, nu) index pairs with mu < nu
_UPPER = np.triu_indices(4, 1)


def _su2_matrix(x: Jet, axis: int) -> Jet:
    """(i/2) sum_k x^k tau_k from the constant Pauli matrices: the su(2)
    component axis `axis` of x (negative, counted among its batch axes)
    becomes trailing (2, 2) matrix axes."""
    tau = np.stack(PAULI).reshape((3,) + (1,) * (-axis - 1) + (2, 2))
    return 0.5j * (x[..., None, None] * tau).sum(axis - 2)


# ---------------------------------------------------------------------------
# gauge sector
# ---------------------------------------------------------------------------


def stress_tensors(gs: Sample, c: Couplings, k: "int | np.ndarray") -> Jet:
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
    k, a = np.asarray(k), gs.value
    half = gs.grad[..., k, :, :] + (
        (c.g * a[..., (k + 2) % 3, :, None]) * a[..., (k + 1) % 3, None, :])
    return half - half.swapaxes(-1, -2)


def lagrangian_gauge(gs: Sample, c: Couplings) -> Jet:
    """-1/4 sum_k (F^k)^2 - 1/4 B^2 (component form, normative), as -1/2
    the sum over the mu < nu entries of the antisymmetric tensors: the
    diagonal is exactly 0 and each entry below it is exactly minus its
    mirror, so the squares of 6 entries in 16 carry the whole sum."""
    F = stress_tensors(gs, c, np.arange(3))[..., _UPPER[0], _UPPER[1]]
    db = gs.grad[..., 3, :, :]
    B = (db - db.swapaxes(-1, -2))[..., _UPPER[0], _UPPER[1]]
    return -0.5 * (contract(F, F, (-2, -1)) + contract(B, B, -1))


def lagrangian_gauge_trace(gs: Sample, c: Couplings) -> Jet:
    """Trace-form oracle: (1/2g^2) tr F^2 + (1/2g'^2) tr Bhat^2.

    The matrix field strength is assembled from the connection matrices
    g (i/2) A^k tau_k themselves, F = dA - dA + [A, A], so this route is
    independent of the component formulas in stress_tensors."""
    da, db = gs.grad[..., :3, :, :], gs.grad[..., 3, :, :]
    amat = JetMatrix2(c.g * _su2_matrix(gs.value[..., :3, :], -2))  # [..., mu]
    a_mu = JetMatrix2(amat.jet[..., :, None, :, :])
    a_nu = JetMatrix2(amat.jet[..., None, :, :, :])
    curl = JetMatrix2(c.g * _su2_matrix(da - da.swapaxes(-1, -2), -3))
    fmat = curl + a_mu.commutator(a_nu)
    bval = c.gp * 0.5j * (db - db.swapaxes(-1, -2))
    bsq = bval * bval
    return ((0.5 / c.g**2) * (fmat * fmat).trace()
            + (0.5 / c.gp**2) * (bsq + bsq)).sum((-2, -1))


# ---------------------------------------------------------------------------
# matter sector, doublet coordinates
# ---------------------------------------------------------------------------


def covariant_derivative_phi(phi: Sample, gs: Sample, c: Couplings) -> Jet:
    """Component form, D phi[..., comp, mu], of a doublet sample over comp:
      D phi_1 = d phi_1 + (i/2)(g A^3 + g' B) phi_1 + (ig/2)(A^1 - iA^2) phi_2
      D phi_2 = d phi_2 - (i/2)(g A^3 - g' B) phi_2 + (ig/2)(A^1 + iA^2) phi_1
    over graded values (the first mixing term is then grade 2)."""
    a1, a2, a3, b = (gs.value[..., k, :] for k in range(4))
    p1, p2 = phi.value[..., 0, None], phi.value[..., 1, None]
    return phi.grad + 0.5j * stack([
        (c.g * a3 + c.gp * b) * p1 + c.g * ((a1 - 1j * a2) * p2),
        -((c.g * a3 - c.gp * b) * p2) + c.g * ((a1 + 1j * a2) * p1),
    ], axis=-2)


def covariant_derivative_phi_matrix(phi: Sample, gs: Sample, c: Couplings) -> Jet:
    """Matrix-action oracle: D phi = d phi + (g sum_k T_k A^k + g' Y B) phi,
    with T_k = (i/2) tau_k and Y = (i/2) 1."""
    m = JetMatrix2(c.g * _su2_matrix(gs.value[..., :3, :], -2)
                   + (0.5j * c.gp) * (gs.value[..., 3, :, None, None] * np.eye(2)))
    return phi.grad + m.apply(phi.value[..., None, :]).swapaxes(-1, -2)


def lagrangian_phi(phi: Sample, gs: Sample, c: Couplings) -> Jet:
    """(1/2) (D_mu phi)^dagger D_mu phi, no potential term."""
    d = covariant_derivative_phi(phi, gs, c)
    return 0.5 * (d.conjugate() * d).sum((-2, -1))


# ---------------------------------------------------------------------------
# matter sector, sphere coordinates
# ---------------------------------------------------------------------------


def covariant_derivative_psi(ps: Sample, gs: Sample, c: Couplings) -> Jet:
    """D_mu psi_k = d_mu psi_k + g sum_a X_a(psi)_k A^a_mu + g' X_Y(psi)_k B_mu
    as D[..., k, mu] (component form, normative)."""
    X = generator_vector_fields(ps.value)
    a, b = gs.value[..., :3, :], gs.value[..., 3, :]
    su2 = contract(X[..., :3, :, None], (c.g * a)[..., :, None, :], -3)
    return ps.grad + su2 + X[..., 3, :, None] * (c.gp * b)[..., None, :]


def lagrangian_psi(ps: Sample, gs: Sample, c: Couplings) -> Jet:
    """(R^2/2) sum_kl g_kl D psi_k D psi_l (metric form, normative) with the
    sphere metric in intrinsic coordinates
    g_kl = [(1 + psi^2) delta_kl - psi_k psi_l] / (1 + psi^2)^2,
    evaluated on graded values (reproducing the displayed j-pattern); the
    closed rational form lagrangian_psi_closed must agree grade-wise."""
    d = covariant_derivative_psi(ps, gs, c)
    v = ps.value
    s = 1.0 + (v * v).sum(-1)
    # (1 + psi^2)^2 g_kl
    metric = s[..., None, None] * np.eye(3) - v[..., :, None] * v[..., None, :]
    total = contract(contract(metric[..., None], d[..., None, :, :], -2), d, (-2, -1))
    return 0.5 * c.R**2 * (total * (s * s).inv())


def lagrangian_psi_closed(ps: Sample, gs: Sample, c: Couplings) -> Jet:
    """Closed form: R^2 [(1+psi^2)(D psi)^2 - (psi . D psi)^2] / (2 (1+psi^2)^2)."""
    d = covariant_derivative_psi(ps, gs, c)
    v = ps.value
    s = 1.0 + (v * v).sum(-1)
    dot = (v[..., None] * d).sum(-2)
    dsq = (d * d).sum((-2, -1))
    return 0.5 * c.R**2 * ((s * dsq - (dot * dot).sum(-1)) * (s * s).inv())


# ---------------------------------------------------------------------------
# fermion sector
# ---------------------------------------------------------------------------


def _kinetic(spinor: Jet, d: Jet, sigma: np.ndarray) -> Jet:
    """i spinor^dagger sigma^mu D_mu spinor, summed over mu, for the
    covariant derivative d[..., s, mu]."""
    acted = (d[..., None, :, :] * sigma).sum(-2)  # [..., t, mu]
    return 1j * (spinor.conjugate()[..., None] * acted).sum((-2, -1))


def covariant_derivative_doublet(fs: Sample, gs: Sample, c: Couplings) -> Jet:
    """Covariant derivative D L[..., comp, s, mu] of the lepton doublet
    L = (e_l, nu), of hypercharge -1/2: each Lorentz spinor component s is
    an SU(2) doublet, acted on like the scalar doublet, whose hypercharge
    is +1/2, so i g' B L is subtracted from the scalar route's derivative.
    One covariant_derivative_phi runs on a view of the leptons' doublet
    rows as [..., s, comp], the gauge sample broadcast over s, so each
    value takes the same scalar operations as one at a time would."""
    doublet = Sample(fs.value[..., :2, :].swapaxes(-1, -2),
                     fs.grad[..., :2, :, :].swapaxes(-2, -3))
    over_s = Sample(gs.value[..., None, :, :], gs.grad[..., None, :, :, :])
    scalar = covariant_derivative_phi(doublet, over_s, c).swapaxes(-3, -2)
    return scalar - 1j * c.gp * (gs.value[..., 3, None, None, :]
                                 * fs.value[..., :2, :, None])


def yukawa_matrix_form(phi: Jet, fs: Sample, h_e: float) -> Jet:
    """h_e [ e_r^dagger (phi^dagger L_l) + (L_l^dagger phi) e_r ] with the
    SU(2) convolution (phi^dagger L_l) = conj(phi_1) e_l + conj(phi_2) nu."""
    el, nu, er = (fs.value[..., k, :] for k in range(3))
    conj = phi.conjugate()
    inner = conj[..., 0, None] * el + conj[..., 1, None] * nu
    return h_e * (hermitian_form_jets(er, inner) + hermitian_form_jets(inner, er))


def yukawa_expanded_form(ps: Sample, fs: Sample, c: Couplings) -> Jet:
    """Expanded mass terms:
      h_e R / sqrt(1 + psi^2) * { e_r+ e_l + e_l+ e_r
        + i psi_3 (e_l+ e_r - e_r+ e_l)
        + i psi_1 (nu+ e_r - e_r+ nu) + psi_2 (nu+ e_r + e_r+ nu) }
    in graded variables (the nu terms then carry grade 2)."""
    v = ps.value
    el, nu, er = (fs.value[..., k, :] for k in range(3))
    pref = c.h_e * c.R * (1.0 + (v * v).sum(-1)).inv_sqrt()
    er_el = hermitian_form_jets(er, el)
    el_er = hermitian_form_jets(el, er)
    nu_er = hermitian_form_jets(nu, er)
    er_nu = hermitian_form_jets(er, nu)
    bracket = (
        er_el
        + el_er
        + 1j * (v[..., 2] * (el_er - er_el))
        + 1j * (v[..., 0] * (nu_er - er_nu))
        + v[..., 1] * (nu_er + er_nu)
    )
    return pref * bracket


def lagrangian_fermion(fs: Sample, phi: Jet, gs: Sample, c: Couplings) -> Jet:
    """Kinetic terms L_l+ i tilde-tau_mu D_mu L_l + e_r+ i tau_mu D_mu e_r
    plus the Yukawa term -h_e[...] with the doublet value phi, all graded.
    The hypercharges are -1/2 for L_l and -1 for e_r (D_mu e_r = d_mu e_r
    - i g' B_mu e_r), so with phi's +1/2 the Yukawa term has none."""
    doublet, er = fs.value[..., :2, :], fs.value[..., 2, :]
    d_doublet = covariant_derivative_doublet(fs, gs, c)
    d_er = fs.grad[..., 2, :, :] - 1j * c.gp * (gs.value[..., 3, None, :] * er[..., None])
    kinetic = (_kinetic(doublet, d_doublet, _SIGMA_TILDE).sum(-1)
               + _kinetic(er, d_er, _SIGMA))
    return kinetic - yukawa_matrix_form(phi, fs, c.h_e)


def fermion_kinetic_oracle(gauge: PlaneWave, leptons: PlaneWave, x: np.ndarray,
                           c: Couplings) -> np.ndarray:
    """Kinetic-term oracle in plain numpy at j = 1, one value per stacked
    configuration at the points x (N, 4): L_l+ i sigma~^mu D_mu L_l with
    D_mu = d_mu + (i/2)(g A.tau - g' B) on L_l = (e_l, nu_l), plus
    e_r+ i sigma^mu (d_mu - i g' B) e_r: hypercharges -1/2 and -1, as its
    own constants. Its Pauli matrices are its own."""
    tau = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    sigma = np.concatenate([np.eye(2)[None], tau])
    sigma_tilde = np.concatenate([np.eye(2)[None], -tau])
    xc = x[:, None, None, :]
    G = gauge.value(xc)  # [n, (A^1, A^2, A^3, B), mu]
    A, B = G[:, :3], G[:, 3]
    F, dF = leptons.value(xc), leptons.grad(xc)
    L, dL = F[:, :2], dF[:, :2]  # the doublet (e_l, nu_l): [n, a, s], [n, a, s, mu]
    er, der = F[:, 2], dF[:, 2]
    conn = 0.5j * (c.g * np.einsum("nkm,kab->nmab", A, tau)
                   - c.gp * B[..., None, None] * np.eye(2))
    DL = dL + np.einsum("nmab,nbs->nasm", conn, L)
    Der = der - 1j * c.gp * B[:, None, :] * er[..., None]
    return (np.einsum("nas,mst,natm->n", L.conj(), 1j * sigma_tilde, DL)
            + np.einsum("ns,mst,ntm->n", er.conj(), 1j * sigma, Der))


# ---------------------------------------------------------------------------
# full bosonic density
# ---------------------------------------------------------------------------


def lagrangian_bosonic(gs: Sample, ps: Sample, c: Couplings) -> Jet:
    """L_A + L_psi, the gauge-invariant bosonic total."""
    return lagrangian_gauge(gs, c) + lagrangian_psi(ps, gs, c)
