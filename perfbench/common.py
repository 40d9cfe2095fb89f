"""Shared plumbing of the benchmark: paths, environment, statistics and
the metric report.

Nothing here imports ``repro``; :func:`bootstrap` puts the checkout's
``src`` on ``sys.path`` and points the cnative compile cache at the
benchmark's own work directory before any workload imports it.
"""

from __future__ import annotations

import json
import math
import os
import re
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: pause between repeated set-ups, so that their median spans the
#: host's speed regimes (they flip on a scale of about a second)
SETUP_GAP_S = 0.3


class BenchSetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program to measure)."""


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def cache_home(workload: str) -> Path:
    """The workload's own ``XDG_CACHE_HOME`` (cnative ``.so`` cache)."""
    return WORK / "xdg" / workload


def bootstrap(workload: str) -> Path:
    """Make ``import repro`` load the checkout and cache under WORK.

    Must run before the first ``import repro`` of the process.  Returns
    the cache home it set.
    """
    if not program_present():
        raise BenchSetupError(
            f"no program to measure: {SRC / 'repro'} is missing")
    home = cache_home(workload)
    home.mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(home)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return home


def child_env(workload: str, extra: "dict[str, str] | None" = None) -> dict:
    """Environment for a subprocess running the program."""
    env = dict(os.environ)
    env["XDG_CACHE_HOME"] = str(cache_home(workload))
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("REPRO_BACKEND", None)
    if extra:
        env.update(extra)
    return env


# ---------------------------------------------------------------------------
# statistics


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]; NaN if empty."""
    data = sorted(values)
    if not data:
        return math.nan
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


#: samples a tail percentile needs beyond it to be reported as supported
TAIL_SAMPLES = 10


def supports(n: int, q: float) -> bool:
    """Whether ``n`` samples put ``TAIL_SAMPLES`` samples past ``q``."""
    return n * (1.0 - q / 100.0) >= TAIL_SAMPLES


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else math.nan


@dataclass
class Timed:
    """What a timed phase measured, raw and at reference host speed.

    ``factors[i]`` turns ``latencies[i]`` into reference time (see
    :class:`hostinfo.SpeedTrack`); ``wall_norm``/``cpu_norm`` are the
    phase's wall and CPU seconds summed the same way.
    """

    work: int
    wall: float
    wall_norm: float
    cpu: float
    cpu_norm: float
    latencies: "list[float]"
    factors: "list[float]"
    speed: float


def report_timed(report: "Report", timed: Timed, op: str) -> None:
    """Throughput, latency percentiles and CPU cost, raw and normalised.

    The ``_norm`` figures are the raw ones at reference host speed; the
    regression bounds gate those, because the reference host's speed
    regimes move raw figures by more than any usable bound.
    """
    raw = [s * 1e3 for s in timed.latencies]
    norm = [s * f * 1e3 for s, f in zip(timed.latencies, timed.factors)]
    n = len(raw)
    add = report.add
    add("throughput_per_s", timed.work / timed.wall, "1/s", timed.work,
        f"{op}/s")
    add("throughput_norm_per_s", timed.work / timed.wall_norm, "1/s",
        timed.work, f"{op}/s at reference host speed")
    add("latency_p50_ms", median(raw), "ms", n)
    add("latency_p90_ms", percentile(raw, 90), "ms", n)
    add("latency_p99_ms", percentile(raw, 99), "ms", n,
        "" if supports(n, 99) else "UNSUPPORTED: <10 samples beyond")
    add("latency_p50_norm_ms", median(norm), "ms", n,
        "at reference host speed")
    add("latency_p90_norm_ms", percentile(norm, 90), "ms", n,
        "at reference host speed")
    add("cpu_ms_per_op", timed.cpu * 1e3 / timed.work, "ms", timed.work,
        f"per {op}")
    add("cpu_norm_ms_per_op", timed.cpu_norm * 1e3 / timed.work, "ms",
        timed.work, f"per {op} at reference host speed")
    add("host.speed_factor", timed.speed, "x",
        note="reference probe time / probe time, median over the run")


# ---------------------------------------------------------------------------
# the report


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    samples: int = 1
    note: str = ""


class Report:
    """Metrics of one run, printed as a table and one JSON line."""

    def __init__(self, workload: str):
        self.workload = workload
        self.metrics: "dict[str, Metric]" = {}
        self.info: "dict[str, object]" = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: "list[str]" = []

    def add(self, name: str, value, unit: str, samples: int = 1,
            note: str = "") -> None:
        if not METRIC_NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
        if name in self.metrics:
            raise ValueError(f"metric {name!r} reported twice")
        self.metrics[name] = Metric(name, float(value), unit, int(samples),
                                    note)

    def incorrect(self, why: str) -> None:
        self.correct = False
        self.problems.append(why)

    def print_table(self) -> None:
        print(f"# workload {self.workload}")
        for key, value in self.info.items():
            print(f"# {key}: {value}")
        for metric in self.metrics.values():
            note = f"  ({metric.note})" if metric.note else ""
            print(f"{metric.name:34s} {metric.value:16.6g} {metric.unit:8s}"
                  f" n={metric.samples}{note}")
        for problem in self.problems:
            print(f"# INCORRECT: {problem}")

    def json_line(self, names) -> str:
        """The contract's last line, restricted to ``names``."""
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise KeyError(f"metrics not measured: {missing}")
        return json.dumps({
            "correct": bool(self.correct),
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": self.metrics[name].value,
                               "unit": self.metrics[name].unit}
                        for name in names},
        })


def declared_metrics(kind: str) -> "list[str]":
    """Metric names of ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in document[kind]]
