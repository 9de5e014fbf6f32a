"""The paired benchmark runner of tools/bench_pairs.py, on two stub
checkouts whose perfbench/run.py prints canned results."""

import importlib.util
import json
import os
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

#: canned per-layer metrics of each side's `--trace 1` run
LAYERS = {"parent": {"cli.self_s": {"value": 4.0e-4, "unit": "s/cmd"}},
          "change": {"cli.self_s": {"value": 1.0e-4, "unit": "s/cmd"}}}

STUB = '''\
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent
if sys.argv[-2:] == ["--trace", "1"]:
    with open({traced!r}, "a") as fh:
        fh.write(json.dumps(sys.argv[1:]) + "\\n")
    print(json.dumps({{"correct": True, "attempted": 3, "failed": 0,
                       "metrics": {layers!r}}}))
    sys.exit(0)
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

#: put before a stub: the directory it runs in, what that holds at the top
#: and whether it holds the two nested entries a copy leaves out
WHERE = '''\
import json, os
with open({where!r}, "a") as fh:
    fh.write(json.dumps([{side!r}, os.getcwd(), sorted(os.listdir()),
                         os.path.exists("src/__pycache__"),
                         os.path.exists("perfbench/.tmp")]) + "\\n")
'''


def _tree(root: Path, side: str, log: Path, correct: bool = True) -> Path:
    tree = root / side
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(STUB.format(
        log=str(log), side=side, wall=WALL[side], correct=correct,
        layers=LAYERS[side], traced=str(tree / "perfbench" / "traced")))
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
            assert wall[side] == {"median": median, "q1": q1, "q3": q3,
                                  "min": min(values)}
        wins = sum(c < p for p, c in zip(parent, change))
        assert wall["change_wins"] == f"{wins}/3"
        assert entry["rate"]["change_wins"] == f"{wins}/3"  # higher is better
        assert entry["peak_rss_mib"]["change_wins"] == "0/3"  # ties
        assert entry["correct"] == {"parent": True, "change": True}
        assert entry["attempted_units"] == {"parent": 9, "change": 9}
    expand = record["end_to_end"]["expand/seed7"]
    assert expand["wall_s"]["parent"] == {"median": 2.0, "q1": 1.5, "q3": 2.5,
                                          "min": 1.0}
    assert expand["wall_s"]["change"] == {"median": 1.0, "q1": 0.75,
                                          "q3": 2.25, "min": 0.5}
    assert expand["wall_s"]["change_wins"] == "2/3"
    # each side's calls 0, 1, 2 fail 0, 1, 0 units
    assert expand["failed_units"] == {"parent": 1, "change": 1}
    machine = record["machine"]
    assert {"nproc", "usable_cpus", "cpu", "cpuset_sched_load_balance",
            "python", "numpy"} <= set(machine)
    assert machine["usable_cpus"] == bench_pairs.usable_cpus()
    assert machine["cpuset_sched_load_balance"] in (None, 0, 1)
    assert len(record["runs"]) == 12
    assert all(r["attempted"] == 3 and r["trace"] == 0 and r["seed"] == 7
               for r in record["runs"])


def test_per_layer_holds_one_traced_run_per_side_and_workload(tmp_path):
    """The traced runs leave the pairs and end_to_end as they are."""
    _, record, _ = _run(tmp_path)
    assert record["per_layer"] == {key: LAYERS
                                   for key in ("expand/seed7", "verify/seed7")}
    for side in ("parent", "change"):
        traced = (tmp_path / side / "perfbench" / "traced").read_text()
        assert [json.loads(line) for line in traced.splitlines()] == [
            ["--workload", workload, "--seed", "7", "--seconds", "20",
             "--trace", "1"] for workload in ("expand", "verify")]


def test_each_side_runs_from_a_fresh_copy_of_its_checkout(tmp_path):
    """Both sides run from sibling copies, never from the trees given, and
    the copies leave out version control, caches and benchmark scratch."""
    log, where = tmp_path / "log.jsonl", tmp_path / "where.jsonl"
    trees = {side: _tree(tmp_path, side, log) for side in ("parent", "change")}
    for side, tree in trees.items():
        for junk in (".git", "src/__pycache__", "perfbench/.tmp", ".hypothesis",
                     ".pytest_cache"):
            (tree / junk).mkdir(parents=True)
        run = tree / "perfbench" / "run.py"
        run.write_text(WHERE.format(where=str(where), side=side) + run.read_text())
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(trees["parent"]), str(trees["change"]),
                             "--workloads", "expand", "--pairs", "2",
                             "--out", str(out)]) == 0
    runs = [json.loads(line) for line in where.read_text().splitlines()]
    assert len(runs) == 6  # 2 pairs and 1 traced run per side
    cwd = {side: {run[1] for run in runs if run[0] == side} for side in trees}
    assert all(len(dirs) == 1 for dirs in cwd.values())
    (parent,), (change,) = cwd["parent"], cwd["change"]
    assert os.path.dirname(parent) == os.path.dirname(change)
    for side, tree in trees.items():
        assert str(tree) not in cwd[side]
        assert not (tree / "perfbench" / "calls").exists()
    assert all(run[2] == ["BENCHMARK.json", "perfbench", "src"] and not any(run[3:])
               for run in runs)
    assert not os.path.exists(parent) and not os.path.exists(change)
    assert parent in json.loads(out.read_text())["description"]


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
