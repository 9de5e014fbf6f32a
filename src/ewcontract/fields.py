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

A configuration is one PlaneWave whose parameters carry its component
indices on trailing axes: the gauge field over (A^1, A^2, A^3, B) x mu,
shape (4, 4); the sphere coordinates psi, shape (3,); the leptons over
(e_l, nu_l, e_r) x spinor, shape (3, 2); and the gauge angles over
(T1, T2, T3, Y), shape (4,). A sample of a configuration is
one :class:`Sample`, its graded value and its 4-gradient on one more
axis: for the gauge field ``value[..., k, mu]`` is A^k_mu (B at k = 3)
and ``grad[..., k, mu, nu]`` is d_mu A^k_nu. The leading axes are the
points: samplers take one spacetime point, shape (4,), or an array of
points, shape (N, 4), and a sample at N points has leading batch shape
(N,), so a density evaluated on it is the density at every point at
once. Leading configuration axes of a wave's parameters, before the
component axes, broadcast against those of the points, so
:func:`stack_configs` of N configurations sampled at (N, 4) points pairs
configuration i with point i, and one configuration at (16, 4) points is
that configuration at 16 points. The generators a = T1, T2, T3, Y act on
the sphere coordinates as one table of vector fields X[..., a, k] over a
generator axis.

Spacetime index contraction is a plain Euclidean sum over mu = 0..3; the
verified claims are algebraic identities and never need a signature.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .group import DOUBLET_GENERATORS, LEPTON_GENERATORS, STRUCTURE_CONSTANTS
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


def stack_configs(configs: Sequence[PlaneWave]) -> PlaneWave:
    """One configuration whose parameters carry a leading axis, item i
    being configs[i]; the configurations must be waves of one shape."""
    return PlaneWave(*(np.array([getattr(cfg, f.name) for cfg in configs])
                       for f in dataclasses.fields(PlaneWave)))


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
class Sample:
    """A sampled configuration: graded values value[..., *comp] of its
    components and their 4-gradients grad[..., *comp, mu]; the gauge
    sample's value[..., k, nu] has grad[..., k, mu, nu] = d_mu A^k_nu, the
    derivative index before the Lorentz index, the layout its curls read."""

    value: Jet
    grad: Jet


def sample_gauge(cfg: PlaneWave, x: Vec4, order: int = DEFAULT_ORDER,
                 jval: Optional[float] = None,
                 scale: Optional[Jet] = None) -> Sample:
    """Sample the gauge field over (A^1, A^2, A^3, B) x mu with the
    contraction substitution A^1 -> jA^1, A^2 -> jA^2 applied (A^3 and B
    stay in the base); an eps jet `scale` multiplies every sampled value,
    B included. A points array x of shape (N, 4) gives jets with leading
    batch shape (N,), one element per point."""
    g = _grading((True, True, False, False), order, jval, scale)
    xc = x[..., None, None, :]
    # gradients hold d_mu of component nu at [..., nu, mu]
    return Sample(g[..., None] * cfg.value(xc),
                  g[..., None, None] * np.swapaxes(cfg.grad(xc), -1, -2))


def sample_psi(cfg: PlaneWave, x: Vec4, order: int = DEFAULT_ORDER,
               jval: Optional[float] = None,
               scale: Optional[Jet] = None) -> Sample:
    """Sample the sphere coordinates with psi_1 -> j psi_1, psi_2 -> j psi_2
    applied; an eps jet `scale` multiplies every sampled value. x is one
    point or (N, 4)."""
    g = _grading((True, True, False), order, jval, scale)
    xc = x[..., None, :]
    return Sample(g * cfg.value(xc), g[..., None] * cfg.grad(xc))


def sample_fermions(cfg: PlaneWave, x: Vec4, order: int = DEFAULT_ORDER,
                    jval: Optional[float] = None,
                    scale: Optional[Jet] = None) -> Sample:
    """Sample the leptons over (e_l, nu_l, e_r) x spinor with nu_l -> j nu_l
    applied; e_l and e_r are unchanged. An eps jet `scale` multiplies
    every sampled value. x is one point or (N, 4)."""
    g = _grading((False, True, False), order, jval, scale)
    xc = x[..., None, None, :]
    return Sample(g[..., None] * cfg.value(xc), g[..., None, None] * cfg.grad(xc))


# ---------------------------------------------------------------------------
# sphere coordinates: phi(psi) and the generator vector fields
# ---------------------------------------------------------------------------


def _direction(v: Jet, dv: Optional[Jet] = None) -> Sample:
    """The doublet's direction u = (1 + i psi_3, psi_2 + i psi_1), phi = r u,
    at the coordinates' value v, with its gradient at their gradient dv."""
    grad = None if dv is None else stack(
        [1j * dv[..., 2, :], dv[..., 1, :] + 1j * dv[..., 0, :]], axis=-2)
    return Sample(stack([1.0 + 1j * v[..., 2], v[..., 1] + 1j * v[..., 0]]), grad)


def _doublet(v: Jet, unit: Jet, R: float) -> Tuple[Jet, Jet, Jet]:
    """(phi = r u, s = 1 + psi^2, r = R / sqrt(s)) at psi's value v and u."""
    s = 1.0 + (v * v).sum(-1)
    r = R * s.inv_sqrt()
    return r[..., None] * unit, s, r


def phi_value(psi: Jet, R: float) -> Jet:
    """phi_from_psi's value alone, by the same code, for value-only readers."""
    return _doublet(psi, _direction(psi).value, R)[0]


def phi_from_psi(ps: Sample, R: float) -> Sample:
    """The graded doublet (phi_1, j phi_2) on the radius-R sphere as a
    sample over its component axis c, with its exact 4-gradient, from
    phi_1 = r(1 + i psi_3), phi_2 = r(psi_2 + i psi_1), r = R / sqrt(1 + psi^2)."""
    v, dv = ps.value, ps.grad
    unit = _direction(v, dv)
    phi, s, r = _doublet(v, unit.value, R)
    ds = 2.0 * (v[..., None] * dv).sum(-2)
    dr = -0.5 * ((r * s.inv())[..., None] * ds)
    return Sample(phi, dr[..., None, :] * unit.value[..., None]
                  + r[..., None, None] * unit.grad)


def hermitian_form_jets(x: Jet, y: Jet) -> Jet:
    """x^dagger y over a trailing axis of 2: the invariant form of graded
    doublets, conj(x1)y1 + j^2 conj(x2)y2, and every spinor bilinear."""
    return (x.conjugate() * y).sum(-1)


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
#: unit vector of axis _AXIS[a], s = (1, -1, 1, 1) and t = (1, 1, 1, -1)
_AXIS = np.array([0, 1, 2, 2])
_E = np.eye(3)[_AXIS]
_TE = np.array([1.0, 1.0, 1.0, -1.0])[:, None] * _E
_HALF_SIGN = 0.5 * np.array([1.0, -1.0, 1.0, 1.0])


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


# ---------------------------------------------------------------------------
# first-order gauge transformation from the group's generator matrices
# ---------------------------------------------------------------------------


@functools.cache
def _columns(name: str) -> Tuple[np.ndarray, np.ndarray]:
    """(cols, table) of the adjoint, doublet or lepton generators gens[a, i,
    k], built on first use: row i's filled columns come first in cols[i],
    and table[a, i, e] = gens[a, i, cols[i, e]]."""
    gens = {"adjoint": STRUCTURE_CONSTANTS.swapaxes(1, 2), "doublet": DOUBLET_GENERATORS,
            "lepton": LEPTON_GENERATORS}[name]
    filled = np.abs(gens).sum(0) > 0
    cols = np.argsort(~filled, axis=1, kind="stable")[:, :filled.sum(1).max()]
    return cols, np.take_along_axis(gens, cols[None], 2)


def _moved(gens: str, angles: Sample, field: Sample) -> Sample:
    """field + Theta field, Theta = sum_a angles_a T_a over the generators
    named gens, and its gradient by the product rule. Theta acts on axis i
    of field.value[..., i, *rest] after the angles' leading axes, row i
    summing over the columns some generator fills; field.grad ends in mu."""
    n = len(field.value.batch_shape) - len(angles.value.batch_shape)
    cols, table = _columns(gens)
    pad = (Ellipsis, slice(None), slice(None)) + (None,) * n
    m = (angles.value[..., None, None] * table).sum(-3)[pad]
    dm = (angles.grad[..., :, None, None, :] * table[..., None]).sum(-4)[pad + (slice(None),)]
    v = field.value[(Ellipsis, cols) + (slice(None),) * n]
    dv = field.grad[(Ellipsis, cols) + (slice(None),) * (n + 1)]
    return Sample(field.value + (m * v).sum(-1 - n),
                  field.grad + (dm * v[..., None] + m[..., None] * dv).sum(-2 - n))


def gauge_transform(theta: PlaneWave, x: Vec4, c: Couplings, gs: Sample, ps: Sample,
                    fs: Sample, jval: Optional[float] = None,
                    scale: Optional[Jet] = None) -> Tuple[Sample, Sample, Sample]:
    """The gauge, sphere-coordinate and lepton samples at x, taken as the
    samples were, under U = 1 + Theta(x), Theta = sum_a
    theta_a T_a over the group's generator matrices (T1, T2, T3, Y). An eps
    jet `scale` multiplies the angles, theta_1 and theta_2 at grade 1, so
    the eps**1 coefficient of a density is its exact first-order variation.

    The connection M = sum_a c_a A^a T_a, c = (g, g, g, g'), moves by
    [Theta, M] - d Theta; the structure constants join components of one
    factor, one coupling, so A moves by Theta's adjoint action. A matter
    field moves to value + Theta value: the leptons, and psi through the
    doublet's direction u, read back as (Im u_2, Re u_2, Im u_1) / Re u_1."""
    g = _grading((True, True, False, False), gs.value.order, jval, scale)
    xc = x[..., None, :]
    angles = Sample(g * theta.value(xc), g[..., None] * theta.grad(xc))
    inverse = 1.0 / np.array([c.g, c.g, c.g, c.gp])
    # the gauge gradient with its derivative axis last while it moves
    a = _moved("adjoint", angles, Sample(gs.value, gs.grad.swapaxes(-1, -2)))
    gauge = Sample(a.value - inverse[:, None] * angles.grad, a.grad.swapaxes(-1, -2)
                   - g[..., None, None] * (inverse[:, None, None] * theta.hess(xc)))

    def parts(w: Jet) -> Jet:
        """(Im w_2, Re w_2, Im w_1, Re w_1) over the last axis of w."""
        re, im = 0.5 * (w + w.conjugate()), -0.5j * (w - w.conjugate())
        return stack([im[..., 1], re[..., 1], im[..., 0], re[..., 0]])

    u = _moved("doublet", angles, _direction(ps.value, ps.grad))
    read, dread = parts(u.value), parts(u.grad.swapaxes(-1, -2))  # dread[..., mu, k]
    inv = read[..., 3].inv()
    psi = read[..., :3] * inv[..., None]
    dpsi = (dread[..., :3] - psi[..., None, :] * dread[..., 3, None]) * inv[..., None, None]
    return gauge, Sample(psi, dpsi.swapaxes(-1, -2)), _moved("lepton", angles, fs)
