"""Symbolic-numeric tools for a contracted SU(2)xU(1) gauge model.

The contraction parameter j lives in a truncated polynomial ring (module
``jets``); the group, field and Lagrangian layers are written once at
j = 1 over graded jet values, so the contraction structure emerges from
the ring arithmetic instead of hand-inserted factors. ``spectrum``
extracts masses and interaction coefficients from the exact densities,
``suites`` bundles the verification checks, and ``cli`` exposes them as
a command-line tool.

The package root exports the two entry points :class:`Couplings` and
:func:`mass_spectrum`; everything else is imported from its module.
"""

from .fields import Couplings
from .spectrum import mass_spectrum

__version__ = "0.1.0"

__all__ = ["Couplings", "mass_spectrum", "__version__"]
