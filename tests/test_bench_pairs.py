"""The paired benchmark runner of tools/bench_pairs.py, on two stub
checkouts whose perfbench/run.py prints canned results."""

import importlib.util
import json
import statistics
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "peak_rss_mib", "unit": "MiB", "better": "lower",
            "bound": 0.05},
           {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}]

#: canned wall_s of each side's runs, in the order each side runs them
WALL = {"parent": [1.0, 3.0, 2.0, 4.0, 6.0, 5.0],
        "change": [0.5, 3.5, 1.0, 3.0, 5.0, 5.5]}

STUB = '''\
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent
counter = here / "calls"
call = int(counter.read_text()) if counter.exists() else 0
counter.write_text(str(call + 1))
with open({log!r}, "a") as fh:
    fh.write(json.dumps([{side!r}, sys.argv[1:]]) + "\\n")
wall = {wall!r}[call]
print("human-readable lines come first")
print(json.dumps({{"correct": {correct!r}, "attempted": 3, "failed": call % 2,
                   "metrics": {{"wall_s": {{"value": wall, "unit": "s"}},
                               "peak_rss_mib": {{"value": 40.0, "unit": "MiB"}},
                               "rate": {{"value": 1.0 / wall, "unit": "1/s"}}}}}}))
'''


def _tree(root: Path, side: str, log: Path, correct: bool = True) -> Path:
    tree = root / side
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(STUB.format(
        log=str(log), side=side, wall=WALL[side], correct=correct))
    (tree / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"], "paths": ["perfbench"],
        "run_seconds": 20, "end_to_end": METRICS}))
    return tree


def _run(tmp_path, correct=True):
    log = tmp_path / "log.jsonl"
    parent = _tree(tmp_path, "parent", log)
    change = _tree(tmp_path, "change", log, correct)
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main([str(parent), str(change), "--workloads", "expand",
                             "verify", "--pairs", "3", "--seed", "7",
                             "--out", str(out)])
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    return code, json.loads(out.read_text()), calls


def test_pairs_alternate_which_side_runs_first(tmp_path):
    code, record, calls = _run(tmp_path)
    assert code == 0
    assert [side for side, _ in calls] == (
        ["parent", "change", "change", "parent", "parent", "change"] * 2)
    assert [argv for _, argv in calls][0] == [
        "--workload", "expand", "--seed", "7", "--seconds", "20", "--trace", "0"]
    assert [argv[1] for _, argv in calls] == ["expand"] * 6 + ["verify"] * 6
    assert [(r["side"], r["pair"]) for r in record["runs"][:6]] == [
        ("parent", 0), ("change", 0), ("change", 1), ("parent", 1),
        ("parent", 2), ("change", 2)]


def test_statistics_and_wins_per_metric(tmp_path):
    _, record, _ = _run(tmp_path)
    assert set(record["end_to_end"]) == {"expand/seed7", "verify/seed7"}
    # the second workload continues each side's canned list
    for key, first in (("expand/seed7", 0), ("verify/seed7", 3)):
        entry = record["end_to_end"][key]
        assert entry["pairs"] == 3
        parent, change = (WALL[s][first:first + 3] for s in ("parent", "change"))
        wall = entry["wall_s"]
        assert wall["parent_runs"] == parent and wall["change_runs"] == change
        for side, values in (("parent", parent), ("change", change)):
            q1, median, q3 = statistics.quantiles(values, n=4,
                                                  method="inclusive")
            assert wall[side] == {"median": median, "q1": q1, "q3": q3}
        wins = sum(c < p for p, c in zip(parent, change))
        assert wall["change_wins"] == f"{wins}/3"
        assert entry["rate"]["change_wins"] == f"{wins}/3"  # higher is better
        assert entry["peak_rss_mib"]["change_wins"] == "0/3"  # ties
        assert entry["correct"] == {"parent": True, "change": True}
        assert entry["attempted_units"] == {"parent": 9, "change": 9}
    expand = record["end_to_end"]["expand/seed7"]
    assert expand["wall_s"]["parent"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert expand["wall_s"]["change"] == {"median": 1.0, "q1": 0.75,
                                          "q3": 2.25}
    assert expand["wall_s"]["change_wins"] == "2/3"
    # each side's calls 0, 1, 2 fail 0, 1, 0 units
    assert expand["failed_units"] == {"parent": 1, "change": 1}
    assert {"nproc", "cpu", "python", "numpy"} <= set(record["machine"])
    assert len(record["runs"]) == 12
    assert all(r["attempted"] == 3 and r["trace"] == 0 and r["seed"] == 7
               for r in record["runs"])


def test_an_incorrect_run_fails_the_command_but_is_recorded(tmp_path):
    code, record, _ = _run(tmp_path, correct=False)
    assert code == 1
    assert record["end_to_end"]["expand/seed7"]["correct"] == {
        "parent": True, "change": False}


def test_a_run_without_a_result_stops_the_command(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    parent, change = (_tree(tmp_path, side, log) for side in ("parent", "change"))
    (change / "perfbench" / "run.py").write_text("import sys; sys.exit(1)\n")
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(parent), str(change), "--workloads", "expand",
                             "--pairs", "1", "--out", str(out)]) == 2
    assert "exited 1" in capsys.readouterr().err
    assert not out.exists()


def test_checkouts_without_the_benchmark_are_rejected(tmp_path):
    with pytest.raises(SystemExit):
        bench_pairs.main([str(tmp_path), str(tmp_path), "--workloads",
                          "expand", "--out", str(tmp_path / "x.json")])
