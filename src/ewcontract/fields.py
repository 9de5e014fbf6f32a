"""Analytic spacetime field configurations and their contraction grading.

Fields are plane waves or low-degree polynomials so that values, gradients
and hessians are exact; every identity check in the test-suite is therefore
free of discretization error. Sampling a configuration promotes the fiber
components (A^1, A^2, psi_1, psi_2, the neutrino) to grade-1 jets; all
physics formulas downstream are written once, at j=1, over these graded
values, and the j^2 factors of the contracted model emerge from the ring
arithmetic. Samples can also be multiplied by the field-scale variable eps
of the ring, which expands a density in the amplitude of its fields.

Fields and samplers take one spacetime point, shape (4,), or an array of
points, shape (N, 4). A sample at N points holds jets with batch shape
(N,), so a density evaluated on it is the density at every point at once.
Field parameters may be arrays too: their leading axes broadcast against
the leading axes of the points, so :func:`stack_configs` of N
configurations sampled at (N, 4) points pairs configuration i with point
i, and one configuration at (16, 4) points is that configuration at 16
points.

Spacetime index contraction is a plain Euclidean sum over mu = 0..3; the
verified claims are algebraic identities and never need a signature.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .jets import DEFAULT_ORDER, Jet, jparam

Vec4 = np.ndarray


class ConfigError(Exception):
    """Invalid configuration (couplings, field specs, CLI input)."""


#: nonzero couplings outside this range overflow or underflow the products
#: of several couplings that the densities and the mass formulas form
COUPLING_MAGNITUDES = (1.0e-50, 1.0e50)


# ---------------------------------------------------------------------------
# analytic fields
# ---------------------------------------------------------------------------


class AnalyticField:
    """Interface: exact value / 4-gradient / hessian at a spacetime point
    x of shape (4,), or at each row of a points array of shape (N, 4).
    Parameters with leading axes are one field per element, broadcast
    against the leading axes of x."""

    def value(self, x: Vec4) -> "complex | np.ndarray":
        raise NotImplementedError

    def grad(self, x: Vec4) -> np.ndarray:
        raise NotImplementedError

    def hess(self, x: Vec4) -> np.ndarray:
        raise NotImplementedError

    def scaled(self, s: complex) -> "AnalyticField":
        raise NotImplementedError


@dataclass(frozen=True)
class PlaneWave(AnalyticField):
    """a * cos(k.x + phase); amplitude may be complex (spinor components).
    Arrays of amplitudes (...,), wavevectors (..., 4) and phases (...,)
    hold one wave per element."""

    amplitude: "complex | np.ndarray"
    wavevector: "Tuple[float, float, float, float] | np.ndarray"
    phase: "float | np.ndarray" = 0.0

    def _arg(self, x: Vec4) -> "float | np.ndarray":
        return np.einsum("...i,...i->...", x, np.asarray(self.wavevector)) + self.phase

    def value(self, x: Vec4) -> "complex | np.ndarray":
        return self.amplitude * np.cos(self._arg(x))

    def grad(self, x: Vec4) -> np.ndarray:
        k = np.asarray(self.wavevector)
        return np.asarray(-self.amplitude * np.sin(self._arg(x)))[..., None] * k

    def hess(self, x: Vec4) -> np.ndarray:
        k = np.asarray(self.wavevector)
        return (np.asarray(-self.amplitude * np.cos(self._arg(x)))[..., None, None]
                * (k[..., :, None] * k[..., None, :]))

    def scaled(self, s: complex) -> "PlaneWave":
        return PlaneWave(self.amplitude * s, self.wavevector, self.phase)


@dataclass(frozen=True)
class Polynomial(AnalyticField):
    """c0 + lin.x + x.quad.x with a symmetric quadratic part. Arrays of
    c0 (...,), lin (..., 4) and quad (..., 4, 4) hold one polynomial per
    element."""

    c0: "complex | np.ndarray" = 0.0
    lin: "Tuple[float, float, float, float] | np.ndarray" = (0.0, 0.0, 0.0, 0.0)
    quad: "Optional[Tuple[Tuple[float, ...], ...] | np.ndarray]" = None

    def _q(self) -> np.ndarray:
        if self.quad is None:
            return np.zeros((4, 4))
        q = np.asarray(self.quad, dtype=complex)
        return 0.5 * (q + np.swapaxes(q, -1, -2))

    def _xq(self, x: Vec4) -> np.ndarray:
        """x.quad (symmetrized), per element."""
        return np.sum(x[..., :, None] * self._q(), axis=-2)

    def value(self, x: Vec4) -> "complex | np.ndarray":
        value = self.c0 + np.sum(x * np.asarray(self.lin, dtype=complex), axis=-1)
        if self.quad is not None:
            value = value + np.sum(self._xq(x) * x, axis=-1)
        return value

    def grad(self, x: Vec4) -> np.ndarray:
        lin = np.asarray(self.lin, dtype=complex)
        if self.quad is None:  # the same gradient at every point
            return np.broadcast_to(lin, np.broadcast_shapes(np.shape(x), lin.shape))
        return lin + 2.0 * self._xq(x)

    def hess(self, x: Vec4) -> np.ndarray:
        q = 2.0 * self._q()
        return np.broadcast_to(q, np.broadcast_shapes(np.shape(x)[:-1] + (4, 4),
                                                      q.shape))

    def scaled(self, s: complex) -> "Polynomial":
        q = None
        if self.quad is not None:
            q = tuple(tuple(s * v for v in row) for row in self.quad)
        return Polynomial(self.c0 * s, tuple(s * v for v in self.lin), q)


ZERO_FIELD = Polynomial()


def constant(value: complex) -> Polynomial:
    return Polynomial(c0=value)


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Couplings:
    """Model constants: SU(2) coupling g, U(1) coupling gp, target-sphere
    radius R and Yukawa constant h_e."""

    g: float
    gp: float
    R: float
    h_e: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.g, self.gp, self.R, self.h_e)):
            raise ConfigError("couplings g, gp, R and h_e must be finite")
        if self.g <= 0 or self.R <= 0:
            raise ConfigError("couplings g and R must be positive")
        if self.gp < 0:
            raise ConfigError("coupling gp must be non-negative")
        if self.h_e < 0:
            raise ConfigError("Yukawa constant h_e must be non-negative")
        lo, hi = COUPLING_MAGNITUDES
        for name in ("g", "gp", "R", "h_e"):
            value = getattr(self, name)
            if value and not lo <= value <= hi:
                raise ConfigError(f"nonzero coupling {name} must lie between "
                                  f"{lo:g} and {hi:g}, got {value!r}")

    @property
    def gz(self) -> float:
        """sqrt(g^2 + g'^2), the neutral-sector normalization."""
        return math.hypot(self.g, self.gp)


@dataclass(frozen=True)
class GaugeConfig:
    """A[k][mu] for k=0..2 (the three su(2) directions) and B[mu]."""

    A: Tuple[Tuple[AnalyticField, ...], ...]
    B: Tuple[AnalyticField, ...]

    @classmethod
    def zero(cls) -> "GaugeConfig":
        return cls(
            tuple(tuple(ZERO_FIELD for _ in range(4)) for _ in range(3)),
            tuple(ZERO_FIELD for _ in range(4)),
        )

    def fiber_scaled(self, s: float) -> "GaugeConfig":
        """Rescale the fiber directions A^1, A^2 only."""
        A = tuple(
            tuple(f.scaled(s) if k < 2 else f for f in self.A[k])
            for k in range(3)
        )
        return GaugeConfig(A, self.B)


@dataclass(frozen=True)
class PsiConfig:
    """The three intrinsic sphere coordinates as spacetime fields."""

    psi: Tuple[AnalyticField, AnalyticField, AnalyticField]

    @classmethod
    def zero(cls) -> "PsiConfig":
        return cls((ZERO_FIELD, ZERO_FIELD, ZERO_FIELD))


Spinor = Tuple[AnalyticField, AnalyticField]


@dataclass(frozen=True)
class FermionConfig:
    """Lepton fields: the doublet (e_l, nu_l) and the singlet e_r, each a
    2-component Lorentz spinor of analytic fields."""

    e_l: Spinor
    nu_l: Spinor
    e_r: Spinor

    @classmethod
    def zero(cls) -> "FermionConfig":
        z = (ZERO_FIELD, ZERO_FIELD)
        return cls(z, z, z)


@dataclass(frozen=True)
class EpsConfig:
    """Gauge-variation parameter fields (eps_1, eps_2, eps_3, eps_Y)."""

    eps: Tuple[AnalyticField, AnalyticField, AnalyticField, AnalyticField]


Config = TypeVar("Config")


def stack_configs(configs: Sequence[Config]) -> Config:
    """One configuration whose field parameters carry a leading axis, item
    i being configs[i]: GaugeConfig, PsiConfig, FermionConfig or
    EpsConfig. The configurations must match field type by field type."""
    first = configs[0]
    if isinstance(first, tuple):
        return tuple(stack_configs([cfg[i] for cfg in configs])
                     for i in range(len(first)))
    if any(type(cfg) is not type(first) for cfg in configs):
        raise ValueError("stacked configurations differ in field types")
    parts = []
    for f in dataclasses.fields(first):
        values = [getattr(cfg, f.name) for cfg in configs]
        if not isinstance(first, AnalyticField):
            parts.append(stack_configs(values))
        elif all(v is None for v in values):
            parts.append(None)
        else:
            parts.append(np.array(values))
    return type(first)(*parts)


# ---------------------------------------------------------------------------
# graded point samples
# ---------------------------------------------------------------------------


def _grading(order: int, jval: Optional[float],
             scale: Optional[Jet]) -> Tuple[Jet, Jet]:
    """(fiber, base) factors of a sampled value: j and 1, times the eps jet
    `scale` if given (exact: a configuration is linear in its amplitude)."""
    base = Jet.const(1.0, order) if scale is None else scale
    return jparam(order, jval) * base, base


@dataclass
class GaugeSample:
    """Graded gauge values at a point: a[k][mu], da[k][mu][nu] = d_mu A^k_nu,
    b[mu], db[mu][nu] = d_mu B_nu."""

    a: List[List[Jet]]
    da: List[List[List[Jet]]]
    b: List[Jet]
    db: List[List[Jet]]
    order: int


@dataclass
class PsiSample:
    """Graded sphere-coordinate values: psi[k] and dpsi[k][mu]."""

    psi: List[Jet]
    dpsi: List[List[Jet]]
    order: int


@dataclass
class FermionSample:
    """Graded spinor values: 2-component el/nu/er and their 4-gradients
    d*[s][mu]; the neutrino carries grade 1."""

    el: List[Jet]
    d_el: List[List[Jet]]
    nu: List[Jet]
    d_nu: List[List[Jet]]
    er: List[Jet]
    d_er: List[List[Jet]]
    order: int


def sample_gauge(cfg: GaugeConfig, x: Vec4, order: int = DEFAULT_ORDER,
                 jval: Optional[float] = None,
                 scale: Optional[Jet] = None) -> GaugeSample:
    """Sample with the contraction substitution A^1 -> jA^1, A^2 -> jA^2
    applied (A^3 and B stay in the base); an eps jet `scale` multiplies
    every sampled value, B included. A points array x of shape (N, 4)
    gives jets with batch shape (N,), one element per point."""
    fiber, base = _grading(order, jval, scale)
    grading = [fiber, fiber, base]
    a, da = [], []
    for k in range(3):
        g = grading[k]
        a.append([g * cfg.A[k][mu].value(x) for mu in range(4)])
        grads = [cfg.A[k][nu].grad(x) for nu in range(4)]
        da.append([[g * grads[nu][..., mu] for nu in range(4)] for mu in range(4)])
    b = [base * cfg.B[mu].value(x) for mu in range(4)]
    bgrads = [cfg.B[nu].grad(x) for nu in range(4)]
    db = [[base * bgrads[nu][..., mu] for nu in range(4)] for mu in range(4)]
    return GaugeSample(a, da, b, db, order)


def sample_psi(cfg: PsiConfig, x: Vec4, order: int = DEFAULT_ORDER,
               jval: Optional[float] = None,
               scale: Optional[Jet] = None) -> PsiSample:
    """Sample with psi_1 -> j psi_1, psi_2 -> j psi_2 applied; an eps jet
    `scale` multiplies every sampled value. x is one point or (N, 4)."""
    fiber, base = _grading(order, jval, scale)
    grading = [fiber, fiber, base]
    psi, dpsi = [], []
    for k in range(3):
        g = grading[k]
        psi.append(g * cfg.psi[k].value(x))
        gr = cfg.psi[k].grad(x)
        dpsi.append([g * gr[..., mu] for mu in range(4)])
    return PsiSample(psi, dpsi, order)


def sample_fermions(cfg: FermionConfig, x: Vec4, order: int = DEFAULT_ORDER,
                    jval: Optional[float] = None,
                    scale: Optional[Jet] = None) -> FermionSample:
    """Sample with nu_l -> j nu_l applied; e_l and e_r are unchanged. An
    eps jet `scale` multiplies every sampled value. x is one point or
    (N, 4)."""
    fiber, base = _grading(order, jval, scale)

    def spinor(sp: Spinor, g: Jet):
        vals = [g * sp[s].value(x) for s in range(2)]
        grads = [sp[s].grad(x) for s in range(2)]
        dv = [[g * grads[s][..., mu] for mu in range(4)] for s in range(2)]
        return vals, dv

    el, d_el = spinor(cfg.e_l, base)
    nu, d_nu = spinor(cfg.nu_l, fiber)
    er, d_er = spinor(cfg.e_r, base)
    return FermionSample(el, d_el, nu, d_nu, er, d_er, order)


# ---------------------------------------------------------------------------
# sphere coordinates: phi(psi) and the generator vector fields
# ---------------------------------------------------------------------------


def phi_from_psi(ps: PsiSample, R: float) -> Tuple[List[Jet], List[List[Jet]]]:
    """Graded doublet (phi_1, j phi_2) on the radius-R sphere and its exact
    4-gradient, from phi_1 = r(1 + i psi_3), phi_2 = r(psi_2 + i psi_1),
    r = R / sqrt(1 + psi^2)."""
    v = ps.psi
    s = 1.0 + v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    sinv = s.inv()
    r = R * s.inv_sqrt()
    phi = [r * (1.0 + 1j * v[2]), r * (v[1] + 1j * v[0])]
    dphi: List[List[Jet]] = [[], []]
    for mu in range(4):
        ds = 2.0 * (v[0] * ps.dpsi[0][mu] + v[1] * ps.dpsi[1][mu]
                    + v[2] * ps.dpsi[2][mu])
        dr = -0.5 * (r * sinv * ds)
        dphi[0].append(dr * (1.0 + 1j * v[2]) + r * (1j * ps.dpsi[2][mu]))
        dphi[1].append(dr * (v[1] + 1j * v[0])
                       + r * (ps.dpsi[1][mu] + 1j * ps.dpsi[0][mu]))
    return phi, dphi


def phi_jacobian(psi: Sequence[Jet], R: float) -> List[List[Jet]]:
    """d(phi_component)/d(psi_l) on the sphere, used by the chain-rule
    oracle for the covariant derivatives."""
    v = list(psi)
    s = 1.0 + v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    sinv = s.inv()
    r = R * s.inv_sqrt()
    comps = [1.0 + 1j * v[2], v[1] + 1j * v[0]]
    direct = [
        [Jet.zero(v[0].order), Jet.zero(v[0].order), Jet.const(1j, v[0].order)],
        [Jet.const(1j, v[0].order), Jet.const(1.0, v[0].order), Jet.zero(v[0].order)],
    ]
    jac = []
    for c in range(2):
        row = []
        for l in range(3):
            dr = -(r * v[l] * sinv)
            row.append(dr * comps[c] + r * direct[c][l])
        jac.append(row)
    return jac


_GEN_GRADE = {"T1": 1, "T2": 1, "T3": 0, "Y": 0}


def generator_vector_field(which: str, v: Sequence[Jet]) -> List[Jet]:
    """Real vector field on the sphere coordinates induced by a generator:
    the exact pushforward of the linear action on the doublet through the
    coordinate map. Written at j=1; grading of the inputs supplies all
    contraction factors.

    The sign of each action is pinned by requiring the doublet-space and
    sphere-coordinate covariant derivatives to be chain-rule consistent;
    this fixes T1 and Y with the opposite sign from T2, T3 relative to a
    naive transcription of the matrix action."""
    v1, v2, v3 = v
    if which == "T1":
        comps = [1.0 + v1 * v1, v1 * v2 - v3, v2 + v1 * v3]
    elif which == "T2":
        comps = [-(v3 + v1 * v2), -(1.0 + v2 * v2), v1 - v2 * v3]
    elif which == "T3":
        comps = [v1 * v3 - v2, v1 + v2 * v3, 1.0 + v3 * v3]
    elif which == "Y":
        comps = [v2 + v1 * v3, v2 * v3 - v1, 1.0 + v3 * v3]
    else:
        raise ValueError(f"unknown generator {which!r}")
    return [0.5 * c for c in comps]


def generator_vector_jacobian(which: str, v: Sequence[Jet]) -> List[List[Jet]]:
    """d(X_k)/d(v_l) for the four vector fields above."""
    v1, v2, v3 = v
    z = Jet.zero(v1.order)
    one = Jet.const(1.0, v1.order)
    if which == "T1":
        rows = [[2.0 * v1, z, z], [v2, v1, -one], [v3, one, v1]]
    elif which == "T2":
        rows = [[-v2, -v1, -one], [z, -2.0 * v2, z], [one, -v3, -v2]]
    elif which == "T3":
        rows = [[v3, -one, v1], [one, v3, v2], [z, z, 2.0 * v3]]
    elif which == "Y":
        rows = [[v3, one, v1], [-one, v3, v2], [z, z, 2.0 * v3]]
    else:
        raise ValueError(f"unknown generator {which!r}")
    return [[0.5 * e for e in row] for row in rows]


def psi_generator_action(which: str, psi: Sequence[Jet],
                         jval: Optional[float] = None) -> List[Jet]:
    """Action of T1, T2, T3 or Y on the graded sphere coordinates, as the
    displayed graded 3-vector: j * X for the fiber generators T1, T2."""
    order = psi[0].order
    j = jparam(order, jval)
    x = generator_vector_field(which, psi)
    if _GEN_GRADE[which] == 1:
        return [j * c for c in x]
    return list(x)


# ---------------------------------------------------------------------------
# infinitesimal gauge transformation (pointwise)
# ---------------------------------------------------------------------------

_EPS_LC = np.zeros((3, 3, 3))
for _p in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS_LC[_p] = 1.0
    _EPS_LC[_p[::-1]] = -1.0


def infinitesimal_gauge_transform(
    gs: GaugeSample,
    ps: PsiSample,
    eps_cfg: EpsConfig,
    x: Vec4,
    c: Couplings,
    jval: Optional[float] = None,
    scale: Optional[Jet] = None,
) -> Tuple[GaugeSample, PsiSample]:
    """First-order gauge transformation of a sample at x (one point, or
    points with a leading axis, as the sample was taken); an eps jet
    `scale` multiplies the gauge parameters, so the eps**1 coefficient of
    a transformed density is its exact first-order variation.

    With u = exp(sum_a eps_a T_a(j) + eps_Y Y) the linearized shifts are
      dA^a_mu  = -(1/g) d_mu eps_a - eps_{bca} eps_b A^c_mu
      dB_mu    = -(1/g') d_mu eps_Y
      dpsi_k   = sum_a eps_a X_a(psi)_k + eps_Y X_Y(psi)_k
    in graded variables (eps_1, eps_2 carry grade 1, matching T_1(j),
    T_2(j)). Derivatives of the shifted fields are produced analytically,
    so invariance checks remain discretization-free.
    """
    order = gs.order
    fiber, base = _grading(order, jval, scale)

    ev, dev, hev = [], [], []
    for a in range(4):
        g = fiber if a < 2 else base
        f = eps_cfg.eps[a]
        ev.append(g * f.value(x))
        gr = f.grad(x)
        dev.append([g * gr[..., mu] for mu in range(4)])
        h = f.hess(x)
        hev.append([[g * h[..., mu, nu] for nu in range(4)] for mu in range(4)])

    # gauge sector
    a_new = [[gs.a[k][mu] for mu in range(4)] for k in range(3)]
    da_new = [[[gs.da[k][mu][nu] for nu in range(4)] for mu in range(4)]
              for k in range(3)]
    for aidx in range(3):
        for mu in range(4):
            delta = (-1.0 / c.g) * dev[aidx][mu]
            for b in range(3):
                for cc in range(3):
                    lc = _EPS_LC[b][cc][aidx]
                    if lc:
                        delta = delta - lc * (ev[b] * gs.a[cc][mu])
            a_new[aidx][mu] = gs.a[aidx][mu] + delta
        for mu in range(4):
            for nu in range(4):
                ddelta = (-1.0 / c.g) * hev[aidx][mu][nu]
                for b in range(3):
                    for cc in range(3):
                        lc = _EPS_LC[b][cc][aidx]
                        if lc:
                            ddelta = ddelta - lc * (
                                dev[b][mu] * gs.a[cc][nu]
                                + ev[b] * gs.da[cc][mu][nu]
                            )
                da_new[aidx][mu][nu] = gs.da[aidx][mu][nu] + ddelta

    b_new = [gs.b[mu] + (-1.0 / c.gp) * dev[3][mu] for mu in range(4)]
    db_new = [
        [gs.db[mu][nu] + (-1.0 / c.gp) * hev[3][mu][nu] for nu in range(4)]
        for mu in range(4)
    ]

    # matter sector
    fields = [generator_vector_field(w, ps.psi) for w in ("T1", "T2", "T3", "Y")]
    jacs = [generator_vector_jacobian(w, ps.psi) for w in ("T1", "T2", "T3", "Y")]
    psi_new = []
    dpsi_new = []
    for k in range(3):
        val = ps.psi[k]
        for a in range(4):
            val = val + ev[a] * fields[a][k]
        psi_new.append(val)
        row = []
        for mu in range(4):
            d = ps.dpsi[k][mu]
            for a in range(4):
                chain = Jet.zero(order)
                for l in range(3):
                    chain = chain + jacs[a][k][l] * ps.dpsi[l][mu]
                d = d + dev[a][mu] * fields[a][k] + ev[a] * chain
            row.append(d)
        dpsi_new.append(row)

    return (
        GaugeSample(a_new, da_new, b_new, db_new, order),
        PsiSample(psi_new, dpsi_new, order),
    )
