"""Analytic spacetime field configurations and their contraction grading.

Fields are plane waves, a constant field being one with zero wavevector,
so that values, gradients and hessians are exact; every identity check
in the test-suite is therefore free of discretization error. Sampling a
configuration promotes the fiber components (A^1, A^2, psi_1, psi_2, the
neutrino) to grade-1 jets; all physics formulas downstream are written
once, at j=1, over these graded values, and the j^2 factors of the
contracted model emerge from the ring arithmetic. Samples can also be
multiplied by the field-scale variable eps of the ring, which expands a
density in the amplitude of its fields.

Each slot of a configuration is one field whose parameters carry its
component indices on trailing axes, A^k_mu over (3, 4), B_mu and eps over
(4,), psi over (3,) and each lepton spinor over (2,); a sample holds one
jet per slot with the same axes: ``a[..., k, mu]`` is A^k_mu and
``da[..., k, mu, nu]`` is d_mu A^k_nu. The leading axes are the points:
samplers take one spacetime point, shape (4,), or an array of points,
shape (N, 4), and a sample at N points has leading batch shape (N,), so a
density evaluated on it is the density at every point at once. Leading
configuration axes of field parameters, before the component axes,
broadcast against those of the points, so :func:`stack_configs` of N
configurations sampled at (N, 4) points pairs configuration i with point
i, and one configuration at (16, 4) points is that configuration at 16
points. The generators a = T1, T2, T3, Y act on the sphere coordinates as
one table of vector fields X[..., a, k] over a generator axis.

Spacetime index contraction is a plain Euclidean sum over mu = 0..3; the
verified claims are algebraic identities and never need a signature.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, TypeVar

import numpy as np

from .jets import DEFAULT_ORDER, Jet, jparam, stack

Vec4 = np.ndarray


class ConfigError(Exception):
    """Invalid configuration (couplings, field specs, CLI input)."""


#: nonzero couplings outside this range overflow or underflow the products
#: of several couplings that the densities and the mass formulas form
COUPLING_MAGNITUDES = (1.0e-50, 1.0e50)


# ---------------------------------------------------------------------------
# analytic fields: exact value, 4-gradient [..., mu] and hessian
# [..., mu, nu] at a point x (4,) or points (..., 4), one field per element
# of the parameters' leading axes broadcast against those of x
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaneWave:
    """a * cos(k.x + phase); amplitude may be complex (spinor components).
    Amplitudes (...,), wavevectors (..., 4) and phases (...,) hold one
    wave per element."""

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

    def scaled(self, s: "complex | np.ndarray") -> "PlaneWave":
        return PlaneWave(self.amplitude * s, self.wavevector, self.phase)


def constant(values: "complex | np.ndarray") -> PlaneWave:
    """Constant fields, one per element of `values`: plane waves with zero
    wavevector and phase, exact because cos(0) = 1 and sin(0) = 0."""
    shape = np.shape(values)
    return PlaneWave(values, np.zeros(shape + (4,)), np.zeros(shape))


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
        named = [(f.name, getattr(self, f.name)) for f in dataclasses.fields(self)]
        if not all(math.isfinite(v) for _, v in named):
            raise ConfigError("couplings g, gp, R and h_e must be finite")
        if self.g <= 0 or self.R <= 0:
            raise ConfigError("couplings g and R must be positive")
        if self.gp < 0:
            raise ConfigError("coupling gp must be non-negative")
        if self.h_e < 0:
            raise ConfigError("Yukawa constant h_e must be non-negative")
        lo, hi = COUPLING_MAGNITUDES
        for name, value in named:
            if value and not lo <= value <= hi:
                raise ConfigError(f"nonzero coupling {name} must lie between "
                                  f"{lo:g} and {hi:g}, got {value!r}")

    @property
    def gz(self) -> float:
        """sqrt(g^2 + g'^2), the neutral-sector normalization."""
        return math.hypot(self.g, self.gp)


@dataclass(frozen=True)
class GaugeConfig:
    """A^k_mu over components (3, 4), k the su(2) direction, and B_mu."""

    A: PlaneWave
    B: PlaneWave

    @classmethod
    def zero(cls) -> "GaugeConfig":
        return cls(constant(np.zeros((3, 4))), constant(np.zeros(4)))

    def fiber_scaled(self, s: float) -> "GaugeConfig":
        """Rescale the fiber directions A^1, A^2 only."""
        return GaugeConfig(self.A.scaled(np.array([[s], [s], [1.0]])), self.B)


@dataclass(frozen=True)
class PsiConfig:
    """The three intrinsic sphere coordinates as spacetime fields."""

    psi: PlaneWave

    @classmethod
    def zero(cls) -> "PsiConfig":
        return cls(constant(np.zeros(3)))


@dataclass(frozen=True)
class FermionConfig:
    """Lepton fields: the doublet (e_l, nu_l) and the singlet e_r, each a
    2-component Lorentz spinor."""

    e_l: PlaneWave
    nu_l: PlaneWave
    e_r: PlaneWave


@dataclass(frozen=True)
class EpsConfig:
    """Gauge-variation parameter fields (eps_1, eps_2, eps_3, eps_Y)."""

    eps: PlaneWave


Config = TypeVar("Config")


def stack_configs(configs: Sequence[Config]) -> Config:
    """One configuration whose field parameters carry a leading axis, item
    i being configs[i]: GaugeConfig, PsiConfig, FermionConfig or
    EpsConfig. The configurations must be of one type, with parameters of
    one shape slot by slot."""
    first = configs[0]
    if any(type(cfg) is not type(first) for cfg in configs):
        raise ValueError("stacked configurations differ in type")
    parts = []
    for f in dataclasses.fields(first):
        values = [getattr(cfg, f.name) for cfg in configs]
        if dataclasses.is_dataclass(values[0]):
            parts.append(stack_configs(values))
        else:
            parts.append(np.array(values))
    return type(first)(*parts)


# ---------------------------------------------------------------------------
# graded point samples
# ---------------------------------------------------------------------------


def _grading(fiber: Sequence[bool], order: int, jval: Optional[float],
             scale: Optional[Jet]) -> Jet:
    """Factors of a sampled component axis, one per component: j on a
    fiber component and 1 on a base one, times the eps jet `scale` if
    given (exact: a configuration is linear in its amplitude, and each
    term of j times the scale multiplies one nonzero pair)."""
    base = Jet.const(1.0, order) if scale is None else scale
    graded = jparam(order, jval) * base
    return stack([graded if f else base for f in fiber])


@dataclass
class GaugeSample:
    """Graded gauge values: a[..., k, mu] = A^k_mu, da[..., k, mu, nu] =
    d_mu A^k_nu, b[..., mu] = B_mu and db[..., mu, nu] = d_mu B_nu."""

    a: Jet
    da: Jet
    b: Jet
    db: Jet


@dataclass
class PsiSample:
    """Graded sphere-coordinate values psi[..., k] and dpsi[..., k, mu]."""

    psi: Jet
    dpsi: Jet


@dataclass
class FermionSample:
    """Graded spinor values: 2-component el, nu and er on a trailing axis
    and their 4-gradients d_*[..., s, mu]; the neutrino carries grade 1."""

    el: Jet
    d_el: Jet
    nu: Jet
    d_nu: Jet
    er: Jet
    d_er: Jet


def sample_gauge(cfg: GaugeConfig, x: Vec4, order: int = DEFAULT_ORDER,
                 jval: Optional[float] = None,
                 scale: Optional[Jet] = None) -> GaugeSample:
    """Sample with the contraction substitution A^1 -> jA^1, A^2 -> jA^2
    applied (A^3 and B stay in the base); an eps jet `scale` multiplies
    every sampled value, B included. A points array x of shape (N, 4)
    gives jets with leading batch shape (N,), one element per point."""
    g = _grading((True, True, False, False), order, jval, scale)
    xa, xb = x[..., None, None, :], x[..., None, :]
    # gradients hold d_mu of component nu at [..., nu, mu]
    return GaugeSample(g[..., :3, None] * cfg.A.value(xa),
                       g[..., :3, None, None] * np.swapaxes(cfg.A.grad(xa), -1, -2),
                       g[..., 3] * cfg.B.value(xb),
                       g[..., 3] * np.swapaxes(cfg.B.grad(xb), -1, -2))


def sample_psi(cfg: PsiConfig, x: Vec4, order: int = DEFAULT_ORDER,
               jval: Optional[float] = None,
               scale: Optional[Jet] = None) -> PsiSample:
    """Sample with psi_1 -> j psi_1, psi_2 -> j psi_2 applied; an eps jet
    `scale` multiplies every sampled value. x is one point or (N, 4)."""
    g = _grading((True, True, False), order, jval, scale)
    xc = x[..., None, :]
    return PsiSample(g * cfg.psi.value(xc), g[..., None] * cfg.psi.grad(xc))


def sample_fermions(cfg: FermionConfig, x: Vec4, order: int = DEFAULT_ORDER,
                    jval: Optional[float] = None,
                    scale: Optional[Jet] = None) -> FermionSample:
    """Sample with nu_l -> j nu_l applied; e_l and e_r are unchanged. An
    eps jet `scale` multiplies every sampled value. x is one point or
    (N, 4)."""
    fiber, base = _grading((True, False), order, jval, scale)
    xc = x[..., None, :]

    def spinor(field: PlaneWave, g: Jet) -> Tuple[Jet, Jet]:
        return g * field.value(xc), g * field.grad(xc)

    return FermionSample(*spinor(cfg.e_l, base), *spinor(cfg.nu_l, fiber),
                         *spinor(cfg.e_r, base))


# ---------------------------------------------------------------------------
# sphere coordinates: phi(psi) and the generator vector fields
# ---------------------------------------------------------------------------


def phi_from_psi(ps: PsiSample, R: float) -> Tuple[Jet, Jet]:
    """Graded doublet phi[..., c] = (phi_1, j phi_2) on the radius-R sphere
    and its exact 4-gradient dphi[..., c, mu], from
    phi_1 = r(1 + i psi_3), phi_2 = r(psi_2 + i psi_1), r = R / sqrt(1 + psi^2)."""
    v, dv = ps.psi, ps.dpsi
    s = 1.0 + (v * v).sum(-1)
    r = R * s.inv_sqrt()
    unit = stack([1.0 + 1j * v[..., 2], v[..., 1] + 1j * v[..., 0]])
    dunit = stack([1j * dv[..., 2, :], dv[..., 1, :] + 1j * dv[..., 0, :]],
                  axis=-2)
    ds = 2.0 * (v[..., None] * dv).sum(-2)
    dr = -0.5 * ((r * s.inv())[..., None] * ds)
    return (r[..., None] * unit,
            dr[..., None, :] * unit[..., None] + r[..., None, None] * dunit)


def phi_jacobian(psi: Jet, R: float) -> Jet:
    """d(phi_c)/d(psi_l) on the sphere as jac[..., c, l], used by the
    chain-rule oracle for the covariant derivatives."""
    v1, v2, v3 = psi[..., 0], psi[..., 1], psi[..., 2]
    s = 1.0 + v1 * v1 + v2 * v2 + v3 * v3
    r = R * s.inv_sqrt()
    comps = stack([1.0 + 1j * v3, v2 + 1j * v1])
    direct = np.array([[0.0, 0.0, 1j], [1j, 1.0, 0.0]])
    dr = -((r * s.inv())[..., None] * psi)
    return comps[..., :, None] * dr[..., None, :] + r[..., None, None] * direct


#: the generators over the axis a = T1, T2, T3, Y act on the sphere
#: coordinates as X_a(v) = (s_a/2)(e_a + (e_a.v) v + t_a e_a x v), e_a the
#: unit vector of axis _AXIS[a], s = (1, -1, 1, 1) and t = (1, 1, 1, -1);
#: _CROSS[a] is the matrix of v -> t_a e_a x v
_AXIS = np.array([0, 1, 2, 2])
_E = np.eye(3)[_AXIS]
_TE = np.array([1.0, 1.0, 1.0, -1.0])[:, None] * _E
_HALF_SIGN = 0.5 * np.array([1.0, -1.0, 1.0, 1.0])
_CROSS = np.cross(_TE[:, None, :], np.eye(3)).swapaxes(-1, -2)


def generator_vector_fields(v: Jet) -> Jet:
    """Real vector fields X[..., a, k] on the sphere coordinates v[..., k]
    induced by the generators a = T1, T2, T3, Y: the exact pushforward of
    the linear action on the doublet through the coordinate map. Written
    at j=1; grading of the inputs supplies all contraction factors.

    The sign of each action is pinned by requiring the doublet-space and
    sphere-coordinate covariant derivatives to be chain-rule consistent;
    this fixes T1 and Y with the opposite sign from T2, T3 relative to a
    naive transcription of the matrix action."""
    b, e = [1, 2, 0], [2, 0, 1]  # t_a e_a x v from cyclic index arrays
    cross = _TE[:, b] * v[..., None, e] - _TE[:, e] * v[..., None, b]
    return _HALF_SIGN[:, None] * (_E + (v[..., _AXIS, None] * v[..., None, :] + cross))


def generator_vector_jacobians(v: Jet) -> Jet:
    """d(X_k)/d(v_l) as jac[..., a, k, l] for the four vector fields above."""
    outer = _E[:, None, :] * v[..., None, :, None]
    diagonal = v[..., _AXIS, None, None] * np.eye(3)
    return _HALF_SIGN[:, None, None] * (outer + diagonal + _CROSS)


# ---------------------------------------------------------------------------
# infinitesimal gauge transformation (pointwise)
# ---------------------------------------------------------------------------

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
    g = _grading((True, True, False, False), gs.a.order, jval, scale)
    xc = x[..., None, :]
    ev = g * eps_cfg.eps.value(xc)
    dev = g[..., None] * eps_cfg.eps.grad(xc)
    coupling = -1.0 / np.array([c.g, c.g, c.g, c.gp])
    shift = coupling[:, None] * dev  # -(1/g) d_mu eps_a
    hess_shift = g[..., None, None] * (coupling[:, None, None] * eps_cfg.eps.hess(xc))

    X = generator_vector_fields(ps.psi)
    dX = (generator_vector_jacobians(ps.psi)[..., None]
          * ps.dpsi[..., None, None, :, :]).sum(-2)  # d_mu X_a(psi)_k
    psi_new = ps.psi + (ev[..., None] * X).sum(-2)
    dpsi_new = ps.dpsi + (dev[..., :, None, :] * X[..., None]
                          + ev[..., None, None] * dX).sum(-3)

    # eps_{bca} = +1 for a = 0, 1, 2 and (b, e) below, -1 for (e, b)
    b, e = [1, 2, 0], [2, 0, 1]
    a_new = gs.a + (shift[..., :3, :] - (ev[..., b, None] * gs.a[..., e, :]
                                         - ev[..., e, None] * gs.a[..., b, :]))
    da_new = gs.da + (
        hess_shift[..., :3, :, :]
        - (dev[..., b, :, None] * gs.a[..., e, None, :]
           + ev[..., b, None, None] * gs.da[..., e, :, :])
        + (dev[..., e, :, None] * gs.a[..., b, None, :]
           + ev[..., e, None, None] * gs.da[..., b, :, :]))
    return (GaugeSample(a_new, da_new, gs.b + shift[..., 3, :],
                        gs.db + hess_shift[..., 3, :, :]),
            PsiSample(psi_new, dpsi_new))
