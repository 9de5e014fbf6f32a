"""Lagrangian densities: gauge sector, matter sector in both coordinate
systems, and the fermion sector, evaluated as jets at spacetime points.

Component formulas are normative; the matrix/trace forms are kept as
independent cross-check routes and never share code with the component
path. Every density returns its value as a jet; a check that needs one
sector on its own calls that sector's density.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .fields import (
    Couplings,
    FermionSample,
    GaugeSample,
    PsiSample,
    generator_vector_field,
    phi_from_psi,
)
from .jets import Jet, JetMatrix2
from .group import PAULI

TAU = PAULI  # Pauli matrices; tau_0 = identity implicitly


# ---------------------------------------------------------------------------
# gauge sector
# ---------------------------------------------------------------------------


def stress_tensors(gs: GaugeSample,
                   c: Couplings) -> Tuple[List[List[List[Jet]]], List[List[Jet]]]:
    """(F, B): F[k][mu][nu] = dA^k - dA^k + g(A^l A^m - A^m A^l) for
    (k, l, m) = (1, 3, 2) and cyclic, graded and antisymmetric, and the
    abelian B[mu][nu] = dB - dB.

    The quadratic sign is fixed by the matrix definition
    F = dA - dA + [A, A] together with the commutation table
    ([T2, T3] = -T1 and cyclic); first-order gauge invariance of the
    Yang-Mills density holds only with this orientation. Written at j=1
    over graded samples: the j^2 on the quadratic part of F^3 appears
    because A^1, A^2 carry grade 1.
    """
    a, da = gs.a, gs.da
    F = [
        [
            [da[k][mu][nu] - da[k][nu][mu]
             + c.g * (a[l][mu] * a[m][nu] - a[m][mu] * a[l][nu])
             for nu in range(4)]
            for mu in range(4)
        ]
        for k, (l, m) in enumerate(((2, 1), (0, 2), (1, 0)))
    ]
    B = [[gs.db[mu][nu] - gs.db[nu][mu] for nu in range(4)] for mu in range(4)]
    return F, B


def lagrangian_gauge(gs: GaugeSample, c: Couplings) -> Jet:
    """-1/4 sum_k (F^k)^2 - 1/4 B^2 (component form, normative)."""
    F, B = stress_tensors(gs, c)
    order = gs.order
    su2 = Jet.zero(order)
    u1 = Jet.zero(order)
    for mu in range(4):
        for nu in range(4):
            for k in range(3):
                su2 = su2 + F[k][mu][nu] * F[k][mu][nu]
            u1 = u1 + B[mu][nu] * B[mu][nu]
    return -0.25 * su2 - 0.25 * u1


def lagrangian_gauge_trace(gs: GaugeSample, c: Couplings) -> Jet:
    """Trace-form oracle: (1/2g^2) tr F^2 + (1/2g'^2) tr Bhat^2.

    The matrix field strength is assembled from the connection matrices
    themselves, F = dA - dA + [A, A], so this route is independent of the
    component formulas in stress_tensors."""
    order = gs.order
    half_i = 0.5j

    def amat(mu: int) -> JetMatrix2:
        return JetMatrix2(
            [
                [
                    half_i * c.g * gs.a[2][mu],
                    half_i * c.g * (gs.a[0][mu] - 1j * gs.a[1][mu]),
                ],
                [
                    half_i * c.g * (gs.a[0][mu] + 1j * gs.a[1][mu]),
                    -half_i * c.g * gs.a[2][mu],
                ],
            ]
        )

    total = Jet.zero(order)
    amats = [amat(mu) for mu in range(4)]
    for mu in range(4):
        for nu in range(4):
            curl = JetMatrix2(
                [
                    [
                        half_i * c.g * (gs.da[2][mu][nu] - gs.da[2][nu][mu]),
                        half_i
                        * c.g
                        * (
                            (gs.da[0][mu][nu] - gs.da[0][nu][mu])
                            - 1j * (gs.da[1][mu][nu] - gs.da[1][nu][mu])
                        ),
                    ],
                    [
                        half_i
                        * c.g
                        * (
                            (gs.da[0][mu][nu] - gs.da[0][nu][mu])
                            + 1j * (gs.da[1][mu][nu] - gs.da[1][nu][mu])
                        ),
                        -half_i * c.g * (gs.da[2][mu][nu] - gs.da[2][nu][mu]),
                    ],
                ]
            )
            fmat = curl + amats[mu].commutator(amats[nu])
            bval = c.gp * half_i * (gs.db[mu][nu] - gs.db[nu][mu])
            bsq = bval * bval
            total = (
                total
                + (0.5 / c.g**2) * (fmat * fmat).trace()
                + (0.5 / c.gp**2) * (bsq + bsq)
            )
    return total


# ---------------------------------------------------------------------------
# matter sector, doublet coordinates
# ---------------------------------------------------------------------------


def covariant_derivative_phi(
    phi: Sequence[Jet], dphi: Sequence[Sequence[Jet]], gs: GaugeSample, c: Couplings
) -> List[List[Jet]]:
    """Component form:
      D phi_1 = d phi_1 + (i/2)(g A^3 + g' B) phi_1 + (ig/2)(A^1 - iA^2) phi_2
      D phi_2 = d phi_2 - (i/2)(g A^3 - g' B) phi_2 + (ig/2)(A^1 + iA^2) phi_1
    over graded values (the first mixing term is then grade 2)."""
    out: List[List[Jet]] = [[], []]
    for mu in range(4):
        a1, a2, a3, b = gs.a[0][mu], gs.a[1][mu], gs.a[2][mu], gs.b[mu]
        out[0].append(
            dphi[0][mu]
            + 0.5j * ((c.g * a3 + c.gp * b) * phi[0])
            + 0.5j * c.g * ((a1 - 1j * a2) * phi[1])
        )
        out[1].append(
            dphi[1][mu]
            - 0.5j * ((c.g * a3 - c.gp * b) * phi[1])
            + 0.5j * c.g * ((a1 + 1j * a2) * phi[0])
        )
    return out


def covariant_derivative_phi_matrix(
    phi: Sequence[Jet], dphi: Sequence[Sequence[Jet]], gs: GaugeSample, c: Couplings
) -> List[List[Jet]]:
    """Matrix-action oracle: D phi = d phi + (g sum_k T_k A^k + g' Y B) phi."""
    order = gs.order
    out: List[List[Jet]] = [[], []]
    half_i = 0.5j
    for mu in range(4):
        m = JetMatrix2(
            [
                [
                    half_i * (c.g * gs.a[2][mu] + c.gp * gs.b[mu]),
                    half_i * c.g * (gs.a[0][mu] - 1j * gs.a[1][mu]),
                ],
                [
                    half_i * c.g * (gs.a[0][mu] + 1j * gs.a[1][mu]),
                    half_i * (-c.g * gs.a[2][mu] + c.gp * gs.b[mu]),
                ],
            ]
        )
        acted = m.apply((phi[0], phi[1]))
        out[0].append(dphi[0][mu] + acted[0])
        out[1].append(dphi[1][mu] + acted[1])
    return out


def lagrangian_phi(
    phi: Sequence[Jet], dphi: Sequence[Sequence[Jet]], gs: GaugeSample, c: Couplings
) -> Jet:
    """(1/2) (D_mu phi)^dagger D_mu phi, no potential term."""
    d = covariant_derivative_phi(phi, dphi, gs, c)
    order = gs.order
    total = Jet.zero(order)
    for mu in range(4):
        for comp in range(2):
            total = total + d[comp][mu].conjugate() * d[comp][mu]
    return 0.5 * total


# ---------------------------------------------------------------------------
# matter sector, sphere coordinates
# ---------------------------------------------------------------------------


def metric_tensor(psi: Sequence[Jet]) -> List[List[Jet]]:
    """Sphere metric in intrinsic coordinates:
    g_kl = [(1 + psi^2) delta_kl - psi_k psi_l] / (1 + psi^2)^2,
    evaluated on graded values (reproducing the displayed j-pattern)."""
    v = list(psi)
    s = 1.0 + v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    denom = (s * s).inv()
    out = []
    for k in range(3):
        row = []
        for l in range(3):
            num = -(v[k] * v[l])
            if k == l:
                num = num + s
            row.append(num * denom)
        out.append(row)
    return out


def covariant_derivative_psi(ps: PsiSample, gs: GaugeSample,
                             c: Couplings) -> List[List[Jet]]:
    """D_mu psi_k = d_mu psi_k + g sum_a X_a(psi)_k A^a_mu + g' X_Y(psi)_k B_mu
    with the generator vector fields X (component form, normative)."""
    xs = [generator_vector_field(w, ps.psi) for w in ("T1", "T2", "T3")]
    xy = generator_vector_field("Y", ps.psi)
    out: List[List[Jet]] = []
    for k in range(3):
        row = []
        for mu in range(4):
            d = ps.dpsi[k][mu]
            for a in range(3):
                d = d + c.g * (xs[a][k] * gs.a[a][mu])
            d = d + c.gp * (xy[k] * gs.b[mu])
            row.append(d)
        out.append(row)
    return out


def lagrangian_psi(ps: PsiSample, gs: GaugeSample, c: Couplings) -> Jet:
    """(R^2/2) sum_kl g_kl D psi_k D psi_l (metric form, normative); the
    closed rational form lagrangian_psi_closed must agree grade-wise."""
    d = covariant_derivative_psi(ps, gs, c)
    g_kl = metric_tensor(ps.psi)
    order = ps.order
    total = Jet.zero(order)
    for mu in range(4):
        for k in range(3):
            for l in range(3):
                total = total + g_kl[k][l] * d[k][mu] * d[l][mu]
    return 0.5 * c.R**2 * total


def lagrangian_psi_closed(ps: PsiSample, gs: GaugeSample, c: Couplings) -> Jet:
    """Closed form: R^2 [(1+psi^2)(D psi)^2 - (psi . D psi)^2] / (2 (1+psi^2)^2)."""
    d = covariant_derivative_psi(ps, gs, c)
    v = ps.psi
    order = ps.order
    s = 1.0 + v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    dsq = Jet.zero(order)
    proj = Jet.zero(order)
    for mu in range(4):
        dot = v[0] * d[0][mu] + v[1] * d[1][mu] + v[2] * d[2][mu]
        proj = proj + dot * dot
        for k in range(3):
            dsq = dsq + d[k][mu] * d[k][mu]
    return 0.5 * c.R**2 * ((s * dsq - proj) * (s * s).inv())


# ---------------------------------------------------------------------------
# fermion sector
# ---------------------------------------------------------------------------


def _spinor_bilinear(x: Sequence[Jet], y: Sequence[Jet]) -> Jet:
    """x^dagger y over the 2 Lorentz-spinor components."""
    return x[0].conjugate() * y[0] + x[1].conjugate() * y[1]


def _tau_apply(mu: int, spinor: Sequence[Jet], sign: float) -> List[Jet]:
    """tau_mu (sign=+1) or tilde-tau_mu (sign=-1 on the spatial matrices)."""
    if mu == 0:
        return list(spinor)
    m = TAU[mu - 1]
    factor = sign
    return [
        factor * (m[0][0] * spinor[0] + m[0][1] * spinor[1]),
        factor * (m[1][0] * spinor[0] + m[1][1] * spinor[1]),
    ]


def covariant_derivative_doublet(fs: FermionSample, gs: GaugeSample,
                                 c: Couplings) -> Tuple[List[List[Jet]], List[List[Jet]]]:
    """Covariant derivative of the lepton doublet (e_l, nu): each Lorentz
    spinor component is an SU(2) doublet, acted on exactly like the scalar
    doublet."""
    del_out: List[List[Jet]] = []
    dnu_out: List[List[Jet]] = []
    for s in range(2):
        d_el, d_nu = covariant_derivative_phi(
            (fs.el[s], fs.nu[s]), (fs.d_el[s], fs.d_nu[s]), gs, c
        )
        del_out.append(d_el)
        dnu_out.append(d_nu)
    return del_out, dnu_out


def yukawa_matrix_form(phi: Sequence[Jet], fs: FermionSample, h_e: float) -> Jet:
    """h_e [ e_r^dagger (phi^dagger L_l) + (L_l^dagger phi) e_r ] with the
    SU(2) convolution (phi^dagger L_l) = conj(phi_1) e_l + conj(phi_2) nu."""
    order = phi[0].order
    inner = [
        phi[0].conjugate() * fs.el[s] + phi[1].conjugate() * fs.nu[s]
        for s in range(2)
    ]
    total = Jet.zero(order)
    for s in range(2):
        total = total + fs.er[s].conjugate() * inner[s]
        total = total + inner[s].conjugate() * fs.er[s]
    return h_e * total


def yukawa_expanded_form(ps: PsiSample, fs: FermionSample, c: Couplings) -> Jet:
    """Expanded mass terms:
      h_e R / sqrt(1 + psi^2) * { e_r+ e_l + e_l+ e_r
        + i psi_3 (e_l+ e_r - e_r+ e_l)
        + i psi_1 (nu+ e_r - e_r+ nu) + psi_2 (nu+ e_r + e_r+ nu) }
    in graded variables (the nu terms then carry grade 2)."""
    v = ps.psi
    s = 1.0 + v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    pref = c.h_e * c.R * s.inv_sqrt()
    er_el = _spinor_bilinear(fs.er, fs.el)
    el_er = _spinor_bilinear(fs.el, fs.er)
    nu_er = _spinor_bilinear(fs.nu, fs.er)
    er_nu = _spinor_bilinear(fs.er, fs.nu)
    bracket = (
        er_el
        + el_er
        + 1j * (v[2] * (el_er - er_el))
        + 1j * (v[0] * (nu_er - er_nu))
        + v[1] * (nu_er + er_nu)
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


def lagrangian_fermion(fs: FermionSample, phi: Sequence[Jet], gs: GaugeSample,
                       c: Couplings) -> Jet:
    """Kinetic terms L_l+ i tilde-tau_mu D_mu L_l + e_r+ i tau_mu D_mu e_r
    plus the Yukawa term -h_e[...], all graded."""
    order = gs.order
    d_el, d_nu = covariant_derivative_doublet(fs, gs, c)
    kinetic_l = Jet.zero(order)
    for mu in range(4):
        for comp, dcomp in ((fs.el, d_el), (fs.nu, d_nu)):
            dvec = [dcomp[0][mu], dcomp[1][mu]]
            acted = _tau_apply(mu, dvec, -1.0)
            kinetic_l = kinetic_l + 1j * _spinor_bilinear(comp, acted)
    kinetic_r = Jet.zero(order)
    for mu in range(4):
        dvec = [
            fs.d_er[s][mu] + 1j * c.gp * (gs.b[mu] * fs.er[s]) for s in range(2)
        ]
        acted = _tau_apply(mu, dvec, 1.0)
        kinetic_r = kinetic_r + 1j * _spinor_bilinear(fs.er, acted)
    yukawa = -1.0 * yukawa_matrix_form(phi, fs, c.h_e)
    return kinetic_l + kinetic_r + yukawa


# ---------------------------------------------------------------------------
# full bosonic density
# ---------------------------------------------------------------------------


def lagrangian_bosonic(gs: GaugeSample, ps: PsiSample, c: Couplings) -> Jet:
    """L_A + L_psi, the gauge-invariant bosonic total."""
    return lagrangian_gauge(gs, c) + lagrangian_psi(ps, gs, c)
