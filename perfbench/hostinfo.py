"""Host fingerprint, noise record, and process-tree CPU/RSS readings.

All readings come from ``/proc``; hardware counters are not used (the
reference host has no ``perf_event_open``).
"""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import sys
import time

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_ISA_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512dq",
              "avx512bw", "avx512vl")


def fingerprint(backend: str) -> dict:
    """What a number measured on this host depends on."""
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "missing"
    try:
        gcc = subprocess.run(["gcc", "--version"], capture_output=True,
                             text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        gcc = "missing"
    return {
        "cpu_model": model,
        "isa_flags": [flag for flag in _ISA_FLAGS if flag in flags],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "gcc": gcc,
        "backend": backend,
    }


class StealMeter:
    """Share of all CPU time stolen by the hypervisor between two reads."""

    @staticmethod
    def _read() -> "tuple[int, int]":
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
        # user nice system idle iowait irq softirq steal (guest* are
        # already inside user/nice)
        busy = sum(fields[:8])
        return fields[7] if len(fields) > 7 else 0, busy

    def __init__(self):
        self._start = self._read()

    def fraction(self) -> float:
        steal, total = self._read()
        d_total = total - self._start[1]
        return (steal - self._start[0]) / d_total if d_total > 0 else 0.0


#: the probe's CPU time on the reference host in its fast regime (ms)
PROBE_REF_MS = 3.3
#: seconds between probes while a workload runs
PROBE_EVERY_S = 0.2
#: back-to-back probes before and after a workload
PROBE_REPEATS = 5


def probe_once_ms() -> float:
    """One fixed probe, ~3 ms: NumPy vector arithmetic on L1-sized
    arrays plus a pure-Python loop (the two kinds of work the program
    does).  Shares no code with the program.

    Timed in thread CPU time, so waiting for a CPU (our own load on
    the other vCPU, or steal) does not count; a slower core does.
    """
    import numpy as np

    base = np.linspace(0.0, 1.0, 1024)
    started = time.thread_time()
    vector = base.copy()
    for _ in range(300):
        vector = np.maximum(vector * 0.999 + base * 0.001, base)
    acc = 0.0
    for i in range(30000):
        acc += (i % 7) * 0.5
    return (time.thread_time() - started) * 1e3


def probe_ms() -> "list[float]":
    """The probe timed ``PROBE_REPEATS`` times back to back (ms)."""
    return [probe_once_ms() for _ in range(PROBE_REPEATS)]


class SpeedTrack:
    """Host speed over a run, from the probe run between operations.

    The reference host swings between speed regimes that last seconds
    (its CPU time per unit of work moves with them, so it is not steal).
    :meth:`factor` turns a time measured at one moment into reference
    time: ``PROBE_REF_MS / probe`` near that moment.  Workloads report
    both the raw and the normalised figures; the normalised ones are
    what the regression bounds gate.
    """

    def __init__(self):
        self.times: "list[float]" = []
        self.probes: "list[float]" = []

    def maybe_probe(self) -> None:
        """Probe if ``PROBE_EVERY_S`` has passed since the last probe."""
        now = time.perf_counter()
        if not self.times or now - self.times[-1] >= PROBE_EVERY_S:
            self.record(now, probe_once_ms())

    def record(self, when: float, probe: float) -> None:
        self.times.append(when)
        self.probes.append(probe)

    def factor(self, when: float) -> float:
        """Reference speed / speed around ``when`` (median of the three
        probes nearest in time)."""
        import bisect
        import statistics

        index = bisect.bisect_left(self.times, when)
        lo, hi = max(0, index - 2), min(len(self.times), index + 2)
        nearest = sorted(range(lo, hi),
                         key=lambda i: abs(self.times[i] - when))[:3]
        return PROBE_REF_MS / statistics.median(
            self.probes[i] for i in nearest)

    def median_factor(self) -> float:
        import statistics

        return PROBE_REF_MS / statistics.median(self.probes)


def probe_loop(every_s: float) -> None:
    """Side-process body: probe every ``every_s`` until standard input
    closes, then print the ``(when, probe)`` samples as one JSON line."""
    import json
    import select

    samples = []
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], every_s)
        if ready and not sys.stdin.read(1):
            break
        if not ready:
            samples.append((time.perf_counter(), probe_once_ms()))
    print(json.dumps(samples), flush=True)


_PROBE_CHILD = """\
import sys
sys.path.insert(0, {here!r})
import hostinfo
hostinfo.probe_loop({every_s!r})
"""


class ProbeProcess:
    """A :class:`SpeedTrack` filled by a side process, for workloads
    whose own process cannot pause between operations.

    The side process is a plain interpreter that stops when its
    standard input closes; :meth:`stop` waits for it to end.
    """

    def __init__(self):
        code = _PROBE_CHILD.format(here=os.path.dirname(
            os.path.abspath(__file__)), every_s=PROBE_EVERY_S)
        self._process = subprocess.Popen(
            [sys.executable, "-c", code], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self.track = SpeedTrack()

    def stop(self) -> SpeedTrack:
        import json

        try:
            out, _ = self._process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            out, _ = self._process.communicate(timeout=30)
        lines = out.strip().splitlines()
        for when, probe in (json.loads(lines[-1]) if lines else []):
            self.track.record(when, probe)
        return self.track


def group_alive(pgid: int) -> bool:
    """Whether any process of group ``pgid`` still runs (zombies aside)."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            return True
    return False


def kill_group(pgid: int, timeout_s: float = 30.0) -> None:
    """SIGKILL every process of group ``pgid`` and wait until none runs."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        if not group_alive(pgid):
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"process group {pgid} would not end")
        time.sleep(0.02)


def children_of(pid: int) -> "list[int]":
    """Every live descendant of ``pid`` (scans ``/proc``)."""
    parents: "dict[int, list[int]]" = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    out, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        for child in parents.get(current, ()):
            out.append(child)
            frontier.append(child)
    return out


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one live process (0 if gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def tree_cpu_seconds(pid: int) -> float:
    return sum(cpu_seconds(p) for p in [pid] + children_of(pid))


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of one process in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of per-process peaks over ``pid`` and its descendants."""
    return sum(peak_rss_mb(p) for p in [pid] + children_of(pid))
