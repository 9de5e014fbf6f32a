"""The suite registry: names, pass state and config overrides."""

import pytest

from ewcontract.cli import DEFAULT_COUPLINGS
from ewcontract.fields import ConfigError, Couplings
from ewcontract.suites import DEFAULTS, REGISTRY, RunConfig, run_suites

EXPECTED_NAMES = {
    "algebra",
    "group",
    "invariance",
    "coordinate",
    "quadratic",
    "cubic",
    "fermion",
    "limit",
}


def _config(**kwargs):
    return RunConfig(
        couplings=Couplings(g=0.65, gp=0.35, R=0.8, h_e=1.2),
        seed=123,
        **kwargs,
    )


def test_registry_names_are_fixed():
    assert set(REGISTRY) == EXPECTED_NAMES


def test_all_suites_pass_at_defaults():
    results = run_suites(
        _config(sample_counts={"group": 100, "invariance_gauge": 5,
                               "coordinate_equivalence": 10,
                               "fermion_identity": 10})
    )
    for name, result in results.items():
        assert result.passed, f"suite {name}: residual {result.residual}"
        assert result.residual <= result.tolerance


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        run_suites(_config(suites=("algebra", "does_not_exist")))


def test_tolerance_override_can_force_failure():
    results = run_suites(
        _config(suites=("algebra",), tolerances={"algebra": -1.0})
    )
    assert not results["algebra"].passed


def test_results_serialize_to_json_shape():
    result = run_suites(_config(suites=("algebra",)))["algebra"]
    payload = result.to_json()
    assert payload["name"] == "algebra"
    assert set(payload) == {"name", "passed", "residual", "tolerance", "details"}


@pytest.mark.parametrize("suite,seed", [("cubic", 2), ("cubic", 9),
                                        ("invariance", 6), ("invariance", 7)])
def test_exact_expansion_suites_pass_at_defaults(suite, seed):
    """Seeds on which the fitted cubic coefficient and the halving-ratio
    estimate of the gauge variation used to fail."""
    cfg = RunConfig(couplings=Couplings(**DEFAULT_COUPLINGS), seed=seed,
                    suites=(suite,))
    result = run_suites(cfg)[suite]
    assert result.passed, f"suite {suite}: residual {result.residual}"


@pytest.mark.parametrize("overrides", [
    {"tolerances": {"cubic_macth": 1e-9}},
    {"tolerances": {"invariance_ratio": 0.05}},
    {"tolerances": {"algebra": "x"}},
    {"tolerances": {"algebra": float("nan")}},
    {"tolerances": {"algebra": True}},
    {"sample_counts": {"group": 0}},
    {"sample_counts": {"group": 2.5}},
    {"sample_counts": {"group": "x"}},
    {"sample_counts": {"quadratic_form": 3}},
    {"sample_counts": [1]},
])
def test_bad_overrides_rejected_before_any_suite_runs(overrides):
    with pytest.raises(ConfigError):
        _config(**overrides)


def test_every_default_is_a_valid_override():
    _config(**DEFAULTS)
