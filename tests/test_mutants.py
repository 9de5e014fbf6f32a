"""Mutation tests: each row plants one fault in a model formula, runs the
suites it names at their default config and asserts that every one of
them fails by a wide margin (residual / tolerance >= 1e3). A gate that no
plausible one-line fault can trip checks nothing.

Every oracle runs in `verify`, so each row is killed by the suites alone:
`one_param` with the full angle instead of the half fails the group
suite's one-parameter-subgroup gate, and `_SIGMA_TILDE = _SIGMA`, the
`e_r` hypercharge coupling halved and the doublet's hypercharge shift
flipped fail the fermion suite's kinetic oracle. The invariance suite
moves every field by the group's generator matrices, never by the
densities' own vector fields or charges, so a flipped vector field and
every hypercharge row fail it too.
"""

import __future__
import inspect
import sys
import textwrap

import numpy as np
import pytest

from ewcontract import fields, group, lagrangian, spectrum
from ewcontract.cli import DEFAULT_COUPLINGS
from ewcontract.fields import Couplings
from ewcontract.suites import RunConfig, run_suites


def _edit(old: str, new: str, count: int = 1):
    """A mutation of a function's source: the `count` occurrences of old
    become new (a row whose text is gone from the source fails loudly)."""

    def mutate(fn):
        source = textwrap.dedent(inspect.getsource(fn))
        assert source.count(old) == count, f"{fn.__name__} lost {old!r}"
        namespace = dict(fn.__globals__)
        exec(compile(source.replace(old, new), inspect.getfile(fn), "exec",
                     flags=__future__.annotations.compiler_flag,
                     dont_inherit=True), namespace)
        return namespace[fn.__name__]

    return mutate


#: (name, module, attribute, mutation of the attribute, suites it fails)
MUTANTS = [
    ("stress_tensor_quadratic_sign", lagrangian, "stress_tensors",
     _edit("gs.grad[..., k, :, :] + (", "gs.grad[..., k, :, :] - ("),
     ("invariance", "cubic")),
    ("t2_sign", fields, "_HALF_SIGN", abs,
     ("invariance", "coordinate", "quadratic", "cubic")),
    ("sphere_metric_without_psi_psi", lagrangian, "lagrangian_psi",
     _edit(" - v[..., :, None] * v[..., None, :]", ""), ("invariance", "coordinate")),
    ("sphere_radius_off_by_1e-7", fields, "_doublet",
     _edit("r = R * s", "r = R * (1.0 + 1.0e-7) * s"), ("coordinate", "fermion")),
    ("y_vector_field_sign", fields, "_HALF_SIGN",
     lambda half: half * np.array([1.0, 1.0, 1.0, -1.0]),
     ("invariance", "coordinate", "quadratic", "cubic")),
    ("phi_1_hypercharge_sign", lagrangian, "covariant_derivative_phi",
     _edit("(c.g * a3 + c.gp * b) * p1", "(c.g * a3 - c.gp * b) * p1"),
     ("coordinate", "invariance")),
    ("u1_gauge_shift_sign", fields, "gauge_transform",
     _edit("c.g, c.g, c.g, c.gp", "c.g, c.g, c.g, -c.gp"), ("invariance",)),
    ("closed_nilpotent_exp_without_conj", group, "exp_closed_nilpotent",
     _edit("np.conj(a) / a3", "a / a3"), ("group",)),
    ("yukawa_i_psi_sign", lagrangian, "yukawa_expanded_form",
     _edit("+ 1j * (v[", "- 1j * (v[", 2), ("fermion",)),
    ("normative_cubic_ww_dpsi3_scaled", spectrum, "normative_cubic_terms",
     _edit('"A3_ww_dpsi3": (', '"A3_ww_dpsi3": 1.01 * ('), ("cubic",)),
    ("psi_3_graded_as_fiber", fields, "sample_psi",
     _edit("_grading((True, True, False), order",
           "_grading((True, True, True), order"), ("quadratic", "limit")),
    ("B_graded_as_fiber", fields, "sample_gauge",
     _edit("_grading((True, True, False, False), order",
           "_grading((True, True, False, True), order"), ("quadratic", "limit")),
    ("nu_l_graded_as_base", fields, "sample_fermions",
     _edit("_grading((False, True, False), order",
           "_grading((False, False, False), order"), ("fermion",)),
    ("one_param_full_angle", group, "one_param",
     _edit("dtype=float) / 2.0", "dtype=float)"), ("group",)),
    ("sigma_tilde_is_sigma", lagrangian, "_SIGMA_TILDE",
     lambda _: lagrangian._SIGMA, ("fermion",)),
    ("e_r_hypercharge_halved", lagrangian, "lagrangian_fermion",
     _edit("1j * c.gp * (gs.value", "0.5j * c.gp * (gs.value"), ("fermion", "invariance")),
    ("lepton_doublet_hypercharge_sign", lagrangian, "covariant_derivative_doublet",
     _edit("scalar - 1j * c.gp", "scalar + 1j * c.gp"), ("fermion", "invariance")),
    ("hermitian_form_without_conjugate", fields, "hermitian_form_jets",
     _edit("x.conjugate() * y", "x * y"), ("invariance", "coordinate", "fermion")),
    ("closed_m_w_negated", spectrum, "closed_masses",
     _edit('"m_w": c.R * c.g / 2.0', '"m_w": -c.R * c.g / 2.0'), ("quadratic",)),
    ("u1em_phase_on_upper_component", group, "u1em_element",
     _edit("np.diag([1.0, 0.0]) + phase * np.diag([0.0, 1.0])",
           "phase * np.diag([1.0, 0.0]) + np.diag([0.0, 1.0])"), ("group",)),
]


def _plant(monkeypatch, module, attribute: str, mutate) -> None:
    """Replace the attribute by its mutant in every ewcontract module that
    holds it (a module that imported it by name holds its own reference)."""
    original = getattr(module, attribute)
    mutant = mutate(original)
    for name, mod in list(sys.modules.items()):
        if name.startswith("ewcontract") and vars(mod).get(attribute) is original:
            monkeypatch.setattr(mod, attribute, mutant)


@pytest.mark.parametrize("module,attribute,mutate,killed",
                         [row[1:] for row in MUTANTS],
                         ids=[row[0] for row in MUTANTS])
def test_mutant_fails_its_suites(monkeypatch, module, attribute, mutate, killed):
    _plant(monkeypatch, module, attribute, mutate)
    results = run_suites(RunConfig(Couplings(**DEFAULT_COUPLINGS), suites=killed))
    for name in killed:
        result = results[name]
        assert not result.passed, name
        assert result.residual / result.tolerance >= 1.0e3, (name, result.residual)
