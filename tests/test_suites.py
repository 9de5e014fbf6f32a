"""The suite registry: names, pass state and config overrides."""

import math
import tracemalloc

import numpy as np
import pytest

from ewcontract.cli import DEFAULT_COUPLINGS
from ewcontract import suites
from ewcontract.fields import ConfigError, Couplings
from ewcontract.group import random_group_element
from ewcontract.jets import Jet, JetMatrix2
from ewcontract.suites import (DEFAULTS, MAX_SAMPLE_COUNT, REGISTRY, RunConfig,
                               run_suites)

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
    {"sample_counts": {"group": MAX_SAMPLE_COUNT + 1}},
])
def test_bad_overrides_rejected_before_any_suite_runs(overrides):
    with pytest.raises(ConfigError):
        _config(**overrides)


def test_every_default_is_a_valid_override():
    _config(**DEFAULTS)


def _wave(rng):
    """The draws of one random plane wave."""
    rng.normal()
    rng.normal(size=4)
    rng.uniform(-math.pi, math.pi)


def _group_element(rng):
    for _ in range(3):
        rng.integers(1, 4)
        rng.uniform(-math.pi, math.pi)


def _per_sample_draws(suite, seed, n):
    """A generator advanced by the draws of the per-sample loops: every
    sample's numbers drawn in turn, n samples per sampled check."""
    if suite == "group":
        rng = np.random.default_rng(seed)
        for _ in range(n):
            _group_element(rng)
        for _ in range(20):
            rng.uniform(-2.0, 2.0, size=3)
    elif suite == "invariance":
        rng = np.random.default_rng(seed + 1)
        for _ in range(n):
            rng.normal(), rng.normal(), rng.normal(), rng.normal()
            _group_element(rng)
            _group_element(rng)
        for _ in range(n):
            for _ in range(19 + 4):
                _wave(rng)
            rng.uniform(-0.5, 0.5, size=4)
    elif suite == "coordinate":
        rng = np.random.default_rng(seed + 2)
        for waves in (3, 19):
            for _ in range(n):
                for _ in range(waves):
                    _wave(rng)
                rng.uniform(-0.5, 0.5, size=4)
    else:
        rng = np.random.default_rng(seed + 5)
        for _ in range(n):
            for _ in range(3 + 6):
                _wave(rng)
            rng.uniform(-0.5, 0.5, size=4)
    return rng.bit_generator.state


@pytest.mark.parametrize("suite", ["group", "invariance", "coordinate",
                                   "fermion"])
def test_batched_suites_draw_what_the_per_sample_loops_draw(monkeypatch, suite):
    """Drawing every sample first leaves the suite's generator where the
    per-sample loops left it."""
    made = []
    default_rng = np.random.default_rng

    def recording(seed):
        made.append(default_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    counts = {key: 7 for key in DEFAULTS["sample_counts"] if key != "mass_sets"}
    REGISTRY[suite](_config(sample_counts=counts))
    monkeypatch.undo()
    assert made[0].bit_generator.state == _per_sample_draws(suite, 123, 7)


def test_group_suite_residuals_are_the_per_sample_maxima():
    result = REGISTRY["group"](_config(sample_counts={"group": 40}))
    rng = np.random.default_rng(123)
    identity, one = JetMatrix2.identity(), Jet.const(1.0)
    unitarity = determinant = 0.0
    for _ in range(40):
        u = random_group_element(rng)
        unitarity = max(unitarity, (u * u.dagger()).max_abs_diff(identity))
        determinant = max(determinant, u.det().max_abs_diff(one))
    assert result.details["unitarity"] == unitarity
    assert result.details["determinant"] == determinant


def _invariance(configs: int):
    return REGISTRY["invariance"](_config(sample_counts={
        "invariance_form": 1, "invariance_gauge": configs}))


def test_invariance_residual_does_not_depend_on_its_chunks(monkeypatch):
    """Each configuration is evaluated alone, so chunks of 7 (the last one
    short) give the one-chunk residual bit for bit."""
    whole = _invariance(20).details["first_order_variation"]
    monkeypatch.setattr(suites, "CONFIG_CHUNK", 7)
    assert _invariance(20).details["first_order_variation"] == whole


def _traced_peak(configs: int) -> int:
    tracemalloc.start()
    try:
        _invariance(configs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_invariance_memory_is_bounded_by_its_chunk(monkeypatch):
    """Four chunks of 10 configurations peak about where one does (ratio
    1.11 measured; evaluating all 40 at once gives 2.5)."""
    monkeypatch.setattr(suites, "CONFIG_CHUNK", 10)
    _invariance(10)  # caches every product plan first
    assert _traced_peak(40) <= 1.5 * _traced_peak(10)
