"""batch_book: revalue a seeded book at N=1024 on kernel IV.B.

A closed loop with one caller: ``repro.price(chunk, steps=1024,
kernel="iv_b")`` on fixed 32-option chunks of a 256-option book, the
backend left on ``auto``.  This is the paper's Table II workload on its
optimised kernel; the backend roll does most of the work and
``service``/``serve``/``stream`` are not used.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

import common
import gen
import hostinfo
import oracle
import perlayer
import tracing

NAME = "batch_book"
STEPS = 1024
BOOK = 256
CHUNK = 32
SETUP_REPEATS = 7
#: latency limit of ``slo_frac``: a call slower than this misses
SLO_MS = 100.0

_CHILD = """
import sys
sys.path.insert(0, {here!r})
import common
common.bootstrap({name!r})
import gen, repro
chunk = gen.option_book({seed}, {chunk}, {chunk})
repro.price(chunk, steps={steps}, kernel="iv_b")
print("ready", flush=True)
"""


def spawn_to_first_price(seed: int) -> float:
    """Seconds from a fresh interpreter to its first priced call."""
    code = _CHILD.format(here=str(common.HERE), name=NAME, seed=seed,
                         chunk=CHUNK, steps=STEPS)
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code],
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL,
                            env=common.child_env(NAME), text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up child failed to price its first chunk")
    return elapsed


def closed_loop(chunks, seconds: float, check, recorder=None):
    """Price chunks round-robin for ``seconds``.

    ``check(which, prices)`` sees each call's prices outside the timed
    call, so no result outlives its call.
    """
    import repro

    speed = hostinfo.SpeedTrack()
    latencies, cpus, ends = [], [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        which = index % len(chunks)
        span = recorder.open("op") if recorder is not None else None
        cpu0, t0 = time.process_time(), time.perf_counter()
        result = repro.price(chunks[which], steps=STEPS, kernel="iv_b")
        ends.append(time.perf_counter())
        cpus.append(time.process_time() - cpu0)
        latencies.append(ends[-1] - t0)
        if span is not None:
            recorder.close(span)
        check(which, result.prices)
        index += 1
        speed.maybe_probe()  # between calls, outside the timed ones
    factors = [speed.factor(end) for end in ends]
    timed = common.Timed(
        work=index * CHUNK, wall=sum(latencies),
        wall_norm=sum(s * f for s, f in zip(latencies, factors)),
        cpu=sum(cpus), cpu_norm=sum(c * f for c, f in zip(cpus, factors)),
        latencies=latencies, factors=factors, speed=speed.median_factor())
    return timed


def checker(tally: oracle.Tally, chunks, expected, american):
    """A ``check`` for :func:`closed_loop` that scores into ``tally``."""

    def check(which, prices):
        base = which * CHUNK
        for offset, option in enumerate(chunks[which]):
            oracle.check_price(tally, option, float(prices[offset]),
                               expected[base + offset],
                               american.get(base + offset))

    return check


def run(report: common.Report, seed: int, seconds: float,
        trace: bool) -> None:
    import repro
    from repro.backends import resolve_backend

    book = gen.option_book(seed, BOOK, CHUNK)
    chunks = [book[i:i + CHUNK] for i in range(0, BOOK, CHUNK)]
    expected = [oracle.price_oracle(option, STEPS) for option in book]
    american = {i: oracle.price_oracle(oracle.american_twin(option), STEPS)
                for i, option in enumerate(book)
                if oracle.is_european_put(option)}

    spawn_to_first_price(seed)  # warms this workload's cnative cache
    report.info["host"] = hostinfo.fingerprint(resolve_backend("auto").name)
    if not trace:
        setups = []
        for _ in range(SETUP_REPEATS):
            setups.append(spawn_to_first_price(seed))
            time.sleep(common.SETUP_GAP_S)
    repro.price(chunks[0], steps=STEPS, kernel="iv_b")  # shared engine

    tally = oracle.Tally()
    check = checker(tally, chunks, expected, american)
    steal = hostinfo.StealMeter()
    probes = hostinfo.probe_ms()
    if trace:
        plain = closed_loop(chunks, seconds / 2, check)
        recorder = tracing.Recorder()
        patch = tracing.install(recorder)
        try:
            timed = closed_loop(chunks, seconds / 2, check, recorder)
        finally:
            patch.restore()
    else:
        timed = closed_loop(chunks, seconds, check)
    probes += hostinfo.probe_ms()

    perlayer.record_tally(report, tally)
    if trace:
        perlayer.report_layers(
            report, recorder, wall=timed.wall,
            overhead=(common.median(timed.latencies)
                      / common.median(plain.latencies) - 1.0),
            steal=steal.fraction(), probes=probes)
        return
    common.report_timed(report, timed, "option")
    latencies_ms = np.array(timed.latencies) * 1e3
    report.add("options_per_s", timed.work / timed.wall, "1/s", timed.work,
               "options / time inside repro.price calls")
    report.add("cpu_ms_per_option", timed.cpu * 1e3 / timed.work, "ms",
               timed.work)
    report.add("slo_frac", float(np.mean(latencies_ms <= SLO_MS)), "frac",
               len(latencies_ms), f"calls within {SLO_MS:g} ms")
    report.add("setup_s", common.median(setups), "s", len(setups),
               "fresh process -> first priced call")
    report.add("peak_rss_mb", hostinfo.peak_rss_mb(os.getpid()), "MB")
    report.add("host.steal_frac", steal.fraction(), "frac")
    report.add("host.probe_ms", common.median(probes), "ms", len(probes))
