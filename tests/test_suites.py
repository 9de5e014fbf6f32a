"""The suite registry: names, pass state and config overrides."""

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from ewcontract.cli import DEFAULT_COUPLINGS, _sanitize
from ewcontract import jets, lagrangian, spectrum, suites
from ewcontract.fields import ConfigError, Couplings, PlaneWave
from ewcontract.group import group_product, random_factors
from ewcontract.jets import Jet, JetMatrix2
from ewcontract.suites import (MAX_SAMPLE_COUNT, REGISTRY, SAMPLE_COUNTS, RunConfig,
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


def test_product_plans_depend_on_structure_not_on_samples():
    """jets._plan is keyed on the supports of the operands, which the
    grading and the eps scaling fix: a second seed reuses every plan of
    the first. (The group suite draws 30 products, so every factor sees
    more than one generator; a batch of diagonal T3 factors alone would
    have zero off-diagonal entries.)"""
    counts = {key: 3 for key in SAMPLE_COUNTS}
    counts["group"] = 30

    def plans_after(seed):
        run_suites(RunConfig(Couplings(**DEFAULT_COUPLINGS), seed=seed,
                             sample_counts=counts))
        return jets._plan.cache_info()

    jets._plan.cache_clear()
    first = plans_after(0)
    assert first.currsize < first.maxsize  # no plan was evicted
    assert plans_after(1).misses == first.misses


def test_a_suite_named_more_than_once_runs_once(monkeypatch):
    """Repeated names run each suite once, in the order first named."""
    calls = []
    for name in ("algebra", "group"):
        def counted(cfg, name=name, suite=REGISTRY[name]):
            calls.append(name)
            return suite(cfg)
        monkeypatch.setitem(REGISTRY, name, counted)
    results = run_suites(_config(
        suites=("group", "algebra", "group", "group"),
        sample_counts={"group": 3}))
    assert calls == ["group", "algebra"]
    assert list(results) == ["group", "algebra"]


def test_a_coupling_a_selected_suite_cannot_use_is_rejected_before_any_suite_runs(
        monkeypatch):
    """At h_e = 0 the fermion suite cannot run, so no selected suite runs."""
    calls = []
    for name, suite in list(REGISTRY.items()):
        def counted(cfg, name=name, suite=suite):
            calls.append(name)
            return suite(cfg)
        monkeypatch.setitem(REGISTRY, name, counted)
    with pytest.raises(ConfigError, match="h_e"):
        run_suites(RunConfig(Couplings(g=0.65, gp=0.35, R=0.8, h_e=0.0)))
    assert calls == []


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        run_suites(_config(suites=("algebra", "does_not_exist")))


def test_result_details_name_each_gate_once():
    """details hold each gate's residual under its name, then the data;
    the suite reports the largest residual and tolerance, and a NaN gate
    fails it and makes its residual NaN in either order."""
    result = suites._result("s", {"a": (1e-13, 1e-12), "b": (2e-13, 1e-11)},
                            {"samples": 7, "terms": {"x": 0.5}})
    assert result.details == {"a": 1e-13, "b": 2e-13, "samples": 7,
                              "terms": {"x": 0.5}}
    assert result.passed
    assert (result.residual, result.tolerance) == (2e-13, 1e-11)
    for gates in ({"a": (1e-13, 1e-12), "b": (math.nan, 1e-12)},
                  {"b": (math.nan, 1e-12), "a": (1e-13, 1e-12)}):
        failed = suites._result("s", gates)
        assert not failed.passed
        assert math.isnan(failed.details["b"])
        assert math.isnan(failed.residual)


def test_results_serialize_to_json_shape():
    result = run_suites(_config(suites=("algebra",)))["algebra"]
    payload = _sanitize(result)
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
    _config(sample_counts=SAMPLE_COUNTS)


def test_every_suite_stream_is_its_own_at_neighbouring_seeds(monkeypatch):
    """Every generator the suites make at seeds 123 and 124 starts in a
    state of its own, apart from halton_points', whose int seed keeps
    scipy's bits and which the quadratic and cubic suites share; the
    seed + k keys of the one-stream-per-suite draws overlapped."""
    made = []
    default_rng = np.random.default_rng

    def recording(seed):
        rng = default_rng(seed)
        made.append((sys._getframe(1).f_code.co_name,
                     rng.bit_generator.state["state"]["state"]))
        return rng

    monkeypatch.setattr(np.random, "default_rng", recording)
    counts = {key: 2 for key in SAMPLE_COUNTS}
    for seed in (123, 124):
        run_suites(RunConfig(couplings=Couplings(**DEFAULT_COUPLINGS), seed=seed,
                             sample_counts=counts))
    monkeypatch.undo()
    streams = [state for caller, state in made if caller != "halton_points"]
    halton = {state for caller, state in made if caller == "halton_points"}
    assert len(set(streams)) == len(streams)
    assert len(halton) == 2 and not halton & set(streams)
    assert len(streams) == 2 * 25  # group 2, invariance 7, coordinate 5, quadratic 3,
    # cubic 1, fermion 6 and limit 1


def test_group_suite_residuals_are_the_per_sample_maxima():
    result = REGISTRY["group"](_config(sample_counts={"group": 40}))
    # the group suite's first stream: seed 123, suite 1 in REGISTRY, stream 0
    rng = np.random.default_rng(np.random.SeedSequence([123, 1, 0]))
    identity, one = JetMatrix2.identity(), Jet.const(1.0)
    unitarity = determinant = 0.0
    for _ in range(40):
        u = group_product(*random_factors(rng))
        unitarity = max(unitarity, (u * u.dagger()).max_abs_diff(identity))
        determinant = max(determinant, u.det().max_abs_diff(one))
    assert result.details["unitarity"] == unitarity
    assert result.details["determinant"] == determinant


def test_mass_steps_evaluate_only_the_densities_they_read(monkeypatch):
    """quadratic reads only the gauge masses and fermion only the lepton
    masses, so neither evaluates the other sector's density."""
    calls = {}
    for name in ("lagrangian_bosonic", "lagrangian_fermion"):
        original = getattr(lagrangian, name)

        def counted(*args, name=name, original=original):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        for module in (lagrangian, spectrum, suites):
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    REGISTRY["quadratic"](_config(sample_counts={"mass_sets": 3}))
    assert calls.pop("lagrangian_bosonic") > 0
    assert calls == {}
    REGISTRY["fermion"](_config(sample_counts={"fermion_identity": 3}))
    assert set(calls) == {"lagrangian_fermion"}


SAMPLED_SUITES = ["group", "invariance", "coordinate", "fermion"]


def _sampled(suite: str, count: int):
    """The suite with every one of its sample counts at count."""
    return REGISTRY[suite](_config(sample_counts={
        key: count for key in SAMPLE_COUNTS if key.startswith(suite)}))


def _evaluated_slots(monkeypatch, suite: str, count: int) -> list:
    """The slots that each sampled check of the suite evaluates, with every
    sample count of the suite at count: a spy on evaluate."""
    seen, sampled_max = [], suites._sampled_max

    def spy(n, draw, evaluate):
        def recording(*slots):
            seen.append(slots)
            return evaluate(*slots)
        return sampled_max(n, draw, recording)

    with monkeypatch.context() as patch:
        patch.setattr(suites, "_sampled_max", spy)
        _sampled(suite, count)
    return seen


def _arrays(slot) -> tuple:
    """A slot's arrays: a wave's three parameters, or the slot itself."""
    return dataclasses.astuple(slot) if isinstance(slot, PlaneWave) else (slot,)


@pytest.mark.parametrize("suite", SAMPLED_SUITES)
def test_sampled_suites_draw_a_prefix_of_any_larger_count(monkeypatch, suite):
    """At counts 7 and 20, every slot of every sampled check holds the same
    first 7 rows, bit for bit."""
    short, long = (_evaluated_slots(monkeypatch, suite, n) for n in (7, 20))
    assert len(short) == len(long) == (1 if suite == "group" else 2)
    for check_short, check_long in zip(short, long):
        assert len(check_short) == len(check_long)
        for a, b in zip(check_short, check_long):
            for x, y in zip(_arrays(a), _arrays(b)):
                assert (len(x), len(y)) == (7, 20)
                assert x.tobytes() == y[:7].tobytes()


@pytest.mark.parametrize("suite", SAMPLED_SUITES)
def test_sampled_residuals_do_not_depend_on_the_chunk(monkeypatch, suite):
    """Each sample is evaluated alone, so chunks of 7 (the last one short)
    give the one-chunk residuals bit for bit."""
    whole = _sampled(suite, 20).details
    monkeypatch.setattr(suites, "CONFIG_CHUNK", 7)
    assert _sampled(suite, 20).details == whole


def _traced_peak(suite: str, count: int) -> int:
    tracemalloc.start()
    try:
        _sampled(suite, count)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("suite", SAMPLED_SUITES)
def test_sampled_memory_is_bounded_by_the_chunk(monkeypatch, suite):
    """Four chunks of 10 samples peak about where one does (ratios 1.00 to
    1.02 measured; drawing, stacking and evaluating every sample of group,
    coordinate or fermion at once gave 1.7 to 3.9)."""
    monkeypatch.setattr(suites, "CONFIG_CHUNK", 10)
    _sampled(suite, 10)  # caches every product plan first
    assert _traced_peak(suite, 40) <= 1.5 * _traced_peak(suite, 10)
