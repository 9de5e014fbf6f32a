"""Symbolic-numeric tools for a contracted SU(2)xU(1) gauge model.

The contraction parameter j lives in a truncated polynomial ring (module
``jets``); the group, field and Lagrangian layers are written once at
j = 1 over graded jet values, so the contraction structure emerges from
the ring arithmetic instead of hand-inserted factors. ``spectrum``
extracts masses and interaction coefficients from the exact densities,
``suites`` bundles the verification checks, and ``cli`` exposes them as
a command-line tool.
"""

from .jets import (
    DEFAULT_ORDER,
    EQ_TOL,
    Jet,
    JetError,
    JetMatrix2,
)
from .fields import (
    ConfigError,
    Couplings,
    EpsConfig,
    FermionConfig,
    GaugeConfig,
    PlaneWave,
    Polynomial,
    PsiConfig,
    phi_from_psi,
    sample_fermions,
    sample_gauge,
    sample_psi,
)
from .group import (
    generator,
    graded_doublet,
    one_param,
    u1_element,
    u1em_element,
)
from .lagrangian import (
    lagrangian_bosonic,
    lagrangian_fermion,
    lagrangian_gauge,
    lagrangian_phi,
    lagrangian_psi,
)
from .spectrum import (
    SpectrumReport,
    epsilon_expand,
    mass_spectrum,
)
from .suites import REGISTRY, RunConfig, SuiteResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ORDER",
    "EQ_TOL",
    "Jet",
    "JetError",
    "JetMatrix2",
    "ConfigError",
    "Couplings",
    "EpsConfig",
    "FermionConfig",
    "GaugeConfig",
    "PlaneWave",
    "Polynomial",
    "PsiConfig",
    "phi_from_psi",
    "sample_fermions",
    "sample_gauge",
    "sample_psi",
    "generator",
    "graded_doublet",
    "one_param",
    "u1_element",
    "u1em_element",
    "lagrangian_bosonic",
    "lagrangian_fermion",
    "lagrangian_gauge",
    "lagrangian_phi",
    "lagrangian_psi",
    "SpectrumReport",
    "epsilon_expand",
    "mass_spectrum",
    "REGISTRY",
    "RunConfig",
    "SuiteResult",
    "run_suites",
    "__version__",
]
