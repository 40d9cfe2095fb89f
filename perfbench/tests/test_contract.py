"""BENCHMARK.json and the printed result keep to the benchmark contract."""

import json
import re
import shutil
import subprocess
import sys

import pytest

import common

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def document():
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def test_keys_and_limits(document):
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert 1 <= document["run_seconds"] <= 60
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metric_names_and_units(document):
    names = []
    for kind in ("workloads", "end_to_end", "per_layer"):
        for entry in document[kind]:
            assert NAME.match(entry["name"]), entry["name"]
            names.append(entry["name"])
            if kind != "workloads":
                assert UNIT.match(entry["unit"]), entry
                assert entry["better"] in ("higher", "lower")
    assert len(names) == len(set(names))
    for entry in document["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = [e for e in document["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(e["bound"]
                                   for e in document["end_to_end"])}]


def test_report_rejects_bad_names_and_gaps():
    report = common.Report("x")
    with pytest.raises(ValueError):
        report.add("bad name", 1.0, "ms")
    report.add("a.b_c-1", 1.0, "ms")
    with pytest.raises(ValueError):
        report.add("a.b_c-1", 2.0, "ms")
    with pytest.raises(KeyError):
        report.json_line(["a.b_c-1", "missing"])
    report.attempted = 1
    line = json.loads(report.json_line(["a.b_c-1"]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_book",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "{" not in out.stdout
