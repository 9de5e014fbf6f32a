"""Command-line behaviour: exit codes, report schema, determinism and
format handling."""

import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ewcontract.cli as cli
from ewcontract.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_SUITE_FAILURE,
    main,
)
from ewcontract.jets import Jet, ZeroConstantTerm
from ewcontract.spectrum import mass_spectrum
from ewcontract.suites import MAX_SAMPLE_COUNT, REGISTRY, TOLERANCES, _result


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_verify_single_suite_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "algebra", "--seed", "42",
                 "--out", str(out)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "suite algebra" in text and "pass" in text
    report = _load(out)
    assert report["schema_version"] == "1.2"
    assert report["seed"] == 42
    assert report["passed"] is True
    assert report["suites"]["algebra"]["passed"] is True


def test_verify_report_deterministic_modulo_timestamp(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--suite", "group", "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == EXIT_OK
    assert main(argv + ["--out", str(out2)]) == EXIT_OK
    r1, r2 = _load(out1), _load(out2)
    r1.pop("timestamp")
    r2.pop("timestamp")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def _counted_forks(monkeypatch):
    """A list that gains an entry each time this process calls os.fork."""
    forks, fork = [], os.fork

    def counted():
        forks.append(True)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _verify_output(argv, out, capsys):
    capsys.readouterr()
    code = main(argv + ["--out", str(out)])
    report = _load(out)
    report.pop("timestamp")
    return code, capsys.readouterr().out, report


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_verify_in_lanes_matches_one_lane(tmp_path, capsys, monkeypatch, seed):
    """Each suite owns its random stream, so the suites run in two forked
    lanes print and report what one process does, and leave no child."""
    argv = ["verify", "--seed", seed]
    forks = _counted_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    lanes = _verify_output(argv, tmp_path / "lanes.json", capsys)
    assert len(forks) == 1
    _no_child_left()
    _cpus(monkeypatch, 1)
    assert _verify_output(argv, tmp_path / "one.json", capsys) == lanes
    assert len(forks) == 1


@pytest.mark.parametrize("broken", ["group", "algebra"])
def test_a_suite_error_in_either_lane_surfaces_as_in_one_lane(monkeypatch, broken):
    """algebra runs in the first lane, this process, and group in the
    second, a forked child. Either one's error comes back with its type and
    message, as in one lane, and no child is left."""
    def fails(cfg):
        raise ZeroConstantTerm("x")

    monkeypatch.setitem(REGISTRY, broken, fails)
    forks = _counted_forks(monkeypatch)
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        with pytest.raises(ZeroConstantTerm, match="^x$"):
            main(["verify", "--suite", "algebra", "--suite", "group"])
        assert forks == [True]
        _no_child_left()


@contextlib.contextmanager
def _profiled():
    sys.setprofile(lambda frame, event, arg: None)
    try:
        yield
    finally:
        sys.setprofile(None)


@contextlib.contextmanager
def _second_thread():
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        yield
    finally:
        done.set()
        thread.join()


@pytest.mark.parametrize("suites,cpus,context", [
    (["algebra"], 2, contextlib.nullcontext),
    (["algebra", "cubic"], 1, contextlib.nullcontext),
    (["algebra", "cubic"], 2, _profiled),
    (["algebra", "cubic"], 2, _second_thread),
], ids=["one-suite", "one-cpu", "profiler", "second-thread"])
def test_verify_forks_no_lane_where_one_is_expected(monkeypatch, capsys, suites,
                                                     cpus, context):
    """One suite, one usable CPU, a profiler that must see every suite and
    a second thread each keep verify in one process."""
    forks = _counted_forks(monkeypatch)
    _cpus(monkeypatch, cpus)
    with context():
        assert main(["verify"] + [f"--suite={name}" for name in suites]) == EXIT_OK
    assert forks == []


def test_verify_rejects_before_any_fork(tmp_path, monkeypatch, capsys):
    """An unknown suite name and a coupling a selected suite cannot use are
    rejected with the one-lane messages before any lane is forked."""
    forks = _counted_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"couplings": {"gp": 0.0}}))
    for argv, message in ((["--suite", "algebra", "--suite", "nonsense"],
                           "error: unknown suite name(s): nonsense"),
                          (["--config", str(cfg)],
                           "error: the invariance suite needs gp > 0")):
        assert main(["verify"] + argv) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith(message)
    assert forks == []


def test_verify_unknown_suite_is_config_error(capsys):
    assert main(["verify", "--suite", "nonsense"]) == EXIT_CONFIG_ERROR
    assert "unknown suite" in capsys.readouterr().err


def test_verify_failure_exit_code_with_impossible_tolerance(tmp_path,
                                                            monkeypatch):
    monkeypatch.setitem(TOLERANCES, "group", 0.0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sample_counts": {"group": 5}}))
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "group", "--config", str(cfg),
                 "--out", str(out)])
    assert code == EXIT_SUITE_FAILURE
    # the report is still written on failure
    assert _load(out)["passed"] is False


def test_spectrum_table_and_json(tmp_path, capsys):
    out = tmp_path / "spectrum.json"
    code = main(["spectrum", "--g", "0.65", "--gp", "0.35", "--R", "0.5",
                 "--h-e", "2", "--out", str(out)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "m_w" in text and "0.1625" in text
    report = _load(out)
    assert report["spectrum"]["m_w"] == pytest.approx(0.1625, abs=1e-10)
    assert report["spectrum"]["m_e"] == pytest.approx(1.0, abs=1e-10)
    # spectrum takes no --seed or --order, and the couplings are echoed once
    assert not {"seed", "order"} & set(report)
    assert "couplings" not in report["spectrum"] and report["couplings"]["R"] == 0.5


def test_spectrum_degenerate_hypercharge_coupling(capsys):
    assert main(["spectrum", "--gp", "0", "--g", "0.65", "--R", "0.5"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    mw = next(l for l in lines if l.startswith("m_w")).split()[1]
    mz = next(l for l in lines if l.startswith("m_z")).split()[1]
    assert mw == mz


def test_spectrum_rejects_nonpositive_couplings(capsys):
    assert main(["spectrum", "--g", "0"]) == EXIT_CONFIG_ERROR
    assert main(["spectrum", "--R", "-1"]) == EXIT_CONFIG_ERROR


def test_spectrum_csv_export(tmp_path, capsys):
    """Every row in order, each carrying the JSON report's extracted and
    closed-form values for the same couplings."""
    out = tmp_path / "spectrum.csv"
    code = main(["spectrum", "--format", "csv", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "quantity,extracted,closed_form"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == [
        "m_w", "m_z", "m_a", "m_e", "weinberg_cos"]
    assert main(["spectrum", "--out", str(tmp_path / "spectrum.json")]) == EXIT_OK
    spectrum = _load(tmp_path / "spectrum.json")["spectrum"]
    for name, extracted, closed in rows:
        assert float(extracted) == spectrum[name]
        assert float(closed) == spectrum["closed_form"][name]


def test_expand_dumps_coefficients(tmp_path, capsys):
    out = tmp_path / "expand.json"
    code = main(["expand", "--n", "2", "--seed", "5", "--out", str(out)])
    assert code == EXIT_OK
    report = _load(out)
    coeffs = report["expansion"]["coefficients"]
    assert set(coeffs) == {"0", "1", "2"}


def test_expand_order_above_limit_rejected(capsys):
    assert main(["expand", "--n", "7"]) == EXIT_CONFIG_ERROR


def test_expand_csv_not_supported(capsys):
    assert main(["expand", "--format", "csv"]) == EXIT_CONFIG_ERROR
    assert "unrecognized arguments: --format" in capsys.readouterr().err


def test_bad_mode_is_config_error(capsys):
    assert main(["verify", "--suite", "algebra", "--mode", "weird"]) \
        == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("cfg", [
    {"tolerances": {"algebra": "x"}},
    {"tolerances": {"cubic_macth": 1e-9}},
    {"sample_counts": {"group": "x"}},
    {"couplings": [1]},
    {"couplings": {"gz": 1.0}},
    {"suites": 5},
    {"suites": ["algebra"]},
    {"tolerance": {"algebra": 1e-9}},
    {"couplings": {"g": True}},
    {"couplings": {"gp": "0.35"}},
    {"tolerances": {"invariance_first_order": 1e300, "invariance_form": 1e300}},
    pytest.param("[" * 200_000, id="nested_too_deep_for_the_json_parser"),
])
@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "algebra"], ["spectrum"], ["expand", "--n", "0"],
])
def test_malformed_config_is_config_error(tmp_path, capsys, cfg, argv):
    path = tmp_path / "cfg.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    assert main(argv + ["--config", str(path)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("target", ["directory", "missing parent", "file parent"])
@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "algebra"], ["spectrum"], ["expand", "--n", "0"],
])
def test_unwritable_out_is_config_error(tmp_path, capsys, argv, target):
    """A regular file is writable, but no file can be made inside it."""
    afile = tmp_path / "afile"
    afile.write_text("")
    out = {"directory": tmp_path, "missing parent": tmp_path / "missing" / "r.json",
           "file parent": afile / "r.json"}[target]
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("error: ") and "--out" in err and "Traceback" not in err
    assert err.count("\n") == 1
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [afile] and afile.read_text() == ""


@pytest.mark.parametrize("argv", [["verify", "--suite", "algebra"],
                                  ["spectrum"]])
def test_mode_only_accepted_by_expand(capsys, argv):
    assert main(argv + ["--mode", "nilpotent"]) == EXIT_CONFIG_ERROR


def test_only_expand_reports_its_mode(tmp_path, capsys):
    out = tmp_path / "expand.json"
    argv = ["expand", "--n", "1", "--mode", "numeric:0.5", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert _load(out)["mode"] == "numeric:0.5"
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--out", str(out)]) == EXIT_OK
    assert "mode" not in _load(out)


def _expansion(tmp_path, *mode):
    out = tmp_path / "expand.json"
    argv = ["expand", "--n", "2", "--seed", "5", "--out", str(out)]
    assert main(argv + list(mode)) == EXIT_OK
    return _load(out)


def test_expand_modes_set_the_contraction_parameter(tmp_path, capsys):
    """unit is j = 1, the run of numeric:1; nilpotent, the default, keeps
    the formal j, so its coefficients differ."""
    unit = _expansion(tmp_path, "--mode", "unit")
    assert unit["mode"] == "unit"
    assert unit["expansion"] == \
        _expansion(tmp_path, "--mode", "numeric:1")["expansion"]
    nilpotent = _expansion(tmp_path, "--mode", "nilpotent")
    assert nilpotent["expansion"] != unit["expansion"]
    default = _expansion(tmp_path)
    assert default["mode"] == "nilpotent"
    assert default["expansion"] == nilpotent["expansion"]


@pytest.mark.parametrize("mode", ["bogus", "numeric:0", "numeric:nan",
                                  "numeric:1.5"])
def test_bad_expand_mode_is_config_error(capsys, mode):
    assert main(["expand", "--n", "0", "--mode", mode]) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_missing_config_file_is_config_error(capsys):
    assert main(["verify", "--config", "/nonexistent/cfg.json"]) \
        == EXIT_CONFIG_ERROR


def test_help_reads_the_terminal_width_when_printed(monkeypatch, capsys):
    widths = {}
    for columns in ("50", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        assert main(["spectrum", "--help"]) == EXIT_OK
        widths[columns] = max(map(len, capsys.readouterr().out.splitlines()))
    assert widths["50"] <= 48 < 50 < widths["120"]


def test_later_calls_build_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    per_call = []
    for _ in range(3):
        before = len(built)
        assert main(["spectrum"]) == EXIT_OK
        per_call.append(len(built) - before)
    assert per_call[1:] == [0, 0]


@pytest.mark.parametrize("command,own", [("verify", "--suite SUITE"),
                                         ("spectrum", "--h-e H_E"),
                                         ("expand", "--mode MODE")])
def test_help_lists_shared_and_own_options_within_the_terminal(
        monkeypatch, capsys, command, own):
    monkeypatch.setenv("COLUMNS", "50")
    assert main([command, "--help"]) == EXIT_OK
    text = capsys.readouterr().out
    seeded = ("--seed SEED", "--order ORDER")
    takes = {"verify": seeded, "spectrum": ("--format {json,csv}",),
             "expand": seeded}[command]
    for option in ("--config CONFIG", "--out OUT", *takes, own):
        assert text.count(option) == 2, option  # usage line and option list
    for option in ("--seed", "--order", "--format"):
        assert (option in text) == any(o.startswith(option) for o in takes)
    assert max(map(len, text.splitlines())) <= 48


#: one valid value other than the default for each flag of each command
#: (the config file's content for --config)
_FLAG_VALUES = {
    "verify": {"--config": {"sample_counts": {"group": 5}}, "--out": "r.json",
               "--seed": "3", "--order": "6", "--suite": "algebra"},
    "spectrum": {"--config": {"couplings": {"R": 2.0}}, "--out": "r.json",
                 "--format": "csv", "--g": "0.7", "--gp": "0.3", "--R": "0.5",
                 "--h-e": "2"},
    "expand": {"--config": {"couplings": {"g": 0.7}}, "--out": "r.json",
               "--seed": "3", "--order": "6", "--n": "1", "--mode": "unit"},
}


def _outcome(argv, echo):
    """stdout and the --out report of a passing run, each without its
    timestamp line and the lines that echo the flag `echo`."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == EXIT_OK, argv
    texts = [stdout.getvalue()]
    if "--out" in argv:
        report = Path(argv[argv.index("--out") + 1])
        texts.append(report.read_text())
        report.unlink()
    return [[line for line in text.splitlines() if not line.lstrip().startswith(
        ('"timestamp": ', f'"{echo}": '))] for text in texts]


def test_every_flag_of_every_command_changes_its_output(tmp_path, monkeypatch):
    """_FLAG_VALUES lists every option each command declares, and each
    value changes the command's stdout or report by more than the flag's
    own echo: a command takes no flag that it does not read. The --out row
    is compared with the run that writes no report."""
    monkeypatch.chdir(tmp_path)
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    declared = {(name, option) for name, parser in commands.items()
                for action in parser._actions for option in action.option_strings
                if option not in ("-h", "--help")}
    assert declared == {(name, flag) for name, flags in _FLAG_VALUES.items()
                        for flag in flags}
    for name, flags in _FLAG_VALUES.items():
        for flag, value in flags.items():
            if flag == "--config":
                Path("cfg.json").write_text(json.dumps(value))
                value = "cfg.json"
            echo = flag.lstrip("-").replace("-", "_")
            base = [name] if flag == "--out" else [name, "--out", "report"]
            assert _outcome(base + [flag, value], echo) \
                != _outcome(base, echo), (name, flag)


def test_the_environment_changes_nothing(tmp_path, monkeypatch):
    """Only the command line and the config file are read: variables named
    like the flags, with values each flag would reject, change no output."""
    for key in [k for k in os.environ if k.startswith("EWCONTRACT_")]:
        monkeypatch.delenv(key)
    argvs = [[*command, "--out", str(tmp_path / "r.json")] for command in (
        ["verify", "--suite", "algebra"], ["spectrum"], ["expand", "--n", "0"])]
    plain = [_outcome(argv, "timestamp") for argv in argvs]
    for name, value in (("SEED", "abc"), ("ORDER", "abc"), ("FORMAT", "xml"),
                        ("MODE", "bogus"), ("CONFIG", "/nonexistent"),
                        ("OUT", "/nonexistent/x")):
        monkeypatch.setenv("EWCONTRACT_" + name, value)
    assert [_outcome(argv, "timestamp") for argv in argvs] == plain


@pytest.mark.parametrize("flag,value", [("--g", "nan"), ("--gp", "inf"),
                                        ("--R", "inf"), ("--h-e", "nan")])
def test_spectrum_rejects_nonfinite_couplings(tmp_path, capsys, flag, value):
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", flag, value, "--out", str(out)]) \
        == EXIT_CONFIG_ERROR
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_invariance_with_zero_hypercharge_coupling_is_config_error(tmp_path,
                                                                   capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"couplings": {"gp": 0.0}}))
    assert main(["verify", "--suite", "invariance", "--config", str(cfg)]) \
        == EXIT_CONFIG_ERROR
    assert "gp" in capsys.readouterr().err


def test_fermion_with_zero_electron_yukawa_is_config_error(tmp_path, capsys):
    """At h_e = 0 the electron mass error would divide by 0."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"couplings": {"h_e": 0.0}}))
    assert main(["verify", "--suite", "fermion", "--config", str(cfg)]) \
        == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "h_e" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["expand", "--n", "0", "--order", "1"],
    ["expand", "--order", "-1"],
    ["verify", "--suite", "algebra", "--order", "1"],
])
def test_order_below_two_is_config_error(capsys, argv):
    assert main(argv) == EXIT_CONFIG_ERROR
    assert "--order" in capsys.readouterr().err


def test_verify_csv_not_supported(capsys):
    assert main(["verify", "--suite", "algebra", "--format", "csv"]) \
        == EXIT_CONFIG_ERROR
    assert "unrecognized arguments: --format" in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_every_report_matches_schema(tmp_path, capsys):
    import jsonschema

    docs = Path(__file__).resolve().parents[1] / "docs"
    schema = _load(docs / "report_schema.json")
    cfg = tmp_path / "cfg.json"
    # the couplings, seed and reduced sample counts of
    # test_suites.py::test_all_suites_pass_at_defaults
    cfg.write_text(json.dumps({
        "couplings": {"g": 0.65, "gp": 0.35, "R": 0.8, "h_e": 1.2},
        "sample_counts": {"group": 100, "invariance_gauge": 5,
                          "coordinate_equivalence": 10,
                          "fermion_identity": 10},
    }))
    runs = {
        "verify": ["verify", "--config", str(cfg), "--seed", "123"],
        "spectrum": ["spectrum", "--g", "0.7", "--gp", "0.3"],
        "expand": ["expand", "--n", "2", "--seed", "5"],
    }
    for name, argv in runs.items():
        out = tmp_path / f"{name}.json"
        assert main(argv + ["--out", str(out)]) == EXIT_OK, name
        report = json.loads(out.read_text(), parse_constant=_reject_constant)
        jsonschema.validate(report, schema)
    assert set(_load(tmp_path / "verify.json")["suites"]) == {
        "algebra", "group", "invariance", "coordinate",
        "quadratic", "cubic", "fermion", "limit"}


def test_non_finite_values_are_written_as_null(tmp_path, monkeypatch, capsys):
    """A computed value that is not finite never reaches a report or the
    expand output as NaN or Infinity: it is written as null, the report
    still matches the schema, and the command exits 1."""
    import jsonschema

    schema = _load(Path(__file__).resolve().parents[1] / "docs"
                   / "report_schema.json")
    monkeypatch.setitem(REGISTRY, "algebra", lambda cfg: _result(
        "algebra", {"table": (math.nan, 1e-12)}, {"worst": complex(math.inf, 0.0)}))

    def spectrum_nan(c):
        report = mass_spectrum(c)
        report.m_w = math.nan
        return report

    monkeypatch.setattr(cli, "mass_spectrum", spectrum_nan)
    monkeypatch.setattr(cli, "epsilon_expand", lambda evaluator, n, order: [
        Jet([math.inf, 1.0], order) for _ in range(n + 1)])
    runs = {
        "verify": ["verify", "--suite", "algebra"],
        "spectrum": ["spectrum"],
        "expand": ["expand", "--n", "1"],
    }
    for name, argv in runs.items():
        out = tmp_path / f"{name}.json"
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == EXIT_SUITE_FAILURE, name
        report = json.loads(out.read_text(), parse_constant=_reject_constant)
        jsonschema.validate(report, schema)
        if name == "expand":
            stdout = json.loads(capsys.readouterr().out,
                                parse_constant=_reject_constant)
            assert stdout["expansion"]["coefficients"]["0"][0] == [None, 0.0]
    assert _load(tmp_path / "verify.json")["suites"]["algebra"]["residual"] \
        is None
    assert _load(tmp_path / "spectrum.json")["spectrum"]["m_w"] is None


@pytest.mark.parametrize("argv,message", [
    (["spectrum", "--bogus"], "unrecognized arguments"),
    (["expand", "--n", "0", "--seed", "-1"], "--seed"),
    (["expand", "--n", "0", "--order", "17"], "--order"),
    (["spectrum", "--R", "1e-60"], "coupling R"),
    (["spectrum", "--g", "1e51"], "coupling g"),
    ([], "required"),
    (["spectrum", "--format", "csv"], "--out"),
    (["spectrum", "--order", "4"], "unrecognized arguments: --order"),
    (["spectrum", "--seed", "3"], "unrecognized arguments: --seed"),
    (["verify", "--format", "json"], "unrecognized arguments: --format"),
    (["expand", "--format", "json"], "unrecognized arguments: --format"),
])
def test_rejections_are_one_line(capsys, argv, message):
    assert main(argv) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("count", [MAX_SAMPLE_COUNT + 1, 10**12])
def test_sample_count_above_the_bound_is_one_line(tmp_path, capsys, count):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sample_counts": {"invariance_gauge": count}}))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) \
        == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "invariance_gauge" in captured.err
    assert str(MAX_SAMPLE_COUNT) in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


_KEYS = st.sampled_from(["couplings", "tolerances", "sample_counts", "suites",
                         "g", "gp", "R", "h_e", "algebra", "group", "bogus"])
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.text(max_size=6), st.lists(st.integers(-3, 3), max_size=2))
_CONFIGS = st.one_of(
    st.recursive(_LEAVES, lambda inner: st.dictionaries(_KEYS, inner, max_size=3),
                 max_leaves=6).map(lambda value: json.dumps(value).encode()),
    st.text(max_size=20).map(str.encode),
    st.binary(max_size=12),
)
_FLAGS = st.sampled_from(["--g", "--gp", "--R", "--h-e", "--order", "--seed",
                          "--format", "--mode", "--n", "--suite", "--bogus"])
_VALUES = st.one_of(
    st.integers().map(str), st.floats().map(repr), st.text(max_size=6),
    st.sampled_from(["nan", "-inf", "1e400", "1e-300", "0", "-1", "17", "csv",
                     "xml", "unit", "numeric:0.5", "algebra"]),
)


def _keeps_the_exit_contract(command, flags, config):
    """Whatever the flags and config file, the exit code is 0, 1 or 2, no
    traceback is printed, and a rejection is one line on stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = command + [token for pair in flags for token in pair]
        if config is not None:
            path = Path(tmp) / "cfg.json"
            path.write_bytes(config)
            argv += ["--config", str(path)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(Path(tmp) / "report")])
    assert code in (EXIT_OK, EXIT_SUITE_FAILURE, EXIT_CONFIG_ERROR), argv
    assert "Traceback" not in err.getvalue()
    if code == EXIT_CONFIG_ERROR:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1, argv


@given(command=st.sampled_from([["spectrum"], ["verify", "--suite", "algebra"],
                                ["expand", "--n", "0"]]),
       flags=st.lists(st.tuples(_FLAGS, _VALUES), max_size=3),
       config=st.none() | _CONFIGS)
@settings(max_examples=80, deadline=None)
def test_malformed_flags_and_config_files_keep_the_exit_contract(
        command, flags, config):
    _keeps_the_exit_contract(command, flags, config)


@given(flags=st.lists(st.tuples(_FLAGS, _VALUES), max_size=3),
       config=st.none() | _CONFIGS)
@settings(max_examples=10, deadline=None)
@example(flags=[], config=None)
def test_full_verify_keeps_the_exit_contract(flags, config):
    """The same contract for verify on all eight suites."""
    _keeps_the_exit_contract(["verify"], flags, config)
