"""risk_stream: replay a seeded tick tape through streaming risk.

A closed-loop replay: a seeded book of 256 American and European
positions at N=256, gated by a relative tolerance, is fed a seeded
``SyntheticTickSource`` tape through ``StreamRunner.process`` on an
in-process ``PricingService`` with default ``ServiceConfig`` and
default ``StreamConfig`` (``iv_b``, greeks, ``batch_ticks=8``).  One
submitter sends many small greeks requests, so per-request overhead
(the coalescing timer, request build, book bookkeeping) matters more
than the roll.
"""

from __future__ import annotations

import itertools
import os
import random
import time

import numpy as np

import common
import gen
import hostinfo
import oracle
import perlayer
import tracing

NAME = "risk_stream"
STEPS = 256
POSITIONS = 256
#: ticks per ``process`` call: about one tape step (every spot once)
TICK_BATCH = 256
#: ``peak_rss_mb`` is read once this many ticks are in: the runner
#: keeps a record of every update, so its memory grows with the ticks
#: it has seen, and a fixed tick count keeps throughput out of the
#: figure.  About 9 s at the seed's speed.
RSS_TICKS = 64 * TICK_BATCH
SETUP_REPEATS = 21
#: repriced positions checked per contract class
CHECKS_PER_CLASS = 40
#: latency limit of ``slo_frac``: tick hand-off -> covering publish
SLO_MS = 25.0


def tolerances():
    from repro.stream import Tolerance

    return {"spot": Tolerance(rel_tol=1e-3),
            "volatility": Tolerance(rel_tol=5e-3),
            "rate": Tolerance(abs_tol=5e-5)}


class SamplingService:
    """Hands every request to the service and keeps a seeded sample of
    what came back: a reservoir of ``CHECKS_PER_CLASS`` repriced
    positions per contract class.

    :meth:`absorb` runs between ``process`` calls and drops every
    future it has read, so the harness holds the same memory however
    many ticks a run gets through.
    """

    def __init__(self, service, seed: int):
        self.service = service
        self.pending = []
        self.rng = random.Random(seed)
        self.seen = [0] * len(gen.CLASSES)
        self.sample = [[] for _ in gen.CLASSES]

    def submit(self, request):
        future = self.service.submit(request)
        self.pending.append((request, future))
        return future

    def absorb(self) -> None:
        """Fold the resolved requests into the reservoirs (Algorithm R)."""
        for request, future in self.pending:
            result = future.result()
            for index, option in enumerate(request.options):
                label = gen.CLASSES.index((option.option_type,
                                           option.exercise))
                self.seen[label] += 1
                bucket = self.sample[label]
                slot = len(bucket)
                if slot == CHECKS_PER_CLASS:
                    slot = self.rng.randrange(self.seen[label])
                    if slot >= CHECKS_PER_CLASS:
                        continue
                row = (option, {name: float(getattr(result, name)[index])
                                for name in ("prices",) + oracle.GREEK_FIELDS})
                if slot == len(bucket):
                    bucket.append(row)
                else:
                    bucket[slot] = row
        self.pending.clear()


def set_up(seed: int):
    """Book build + service start + first whole-book valuation."""
    from repro.service import PricingService
    from repro.stream import StreamRunner

    book = gen.position_book(seed, POSITIONS, STEPS, tolerances())
    service = PricingService()
    sampler = SamplingService(service, seed)
    runner = StreamRunner(book, sampler)
    runner.revalue()
    sampler.pending.clear()  # the set-up valuation is not checked
    return book, service, sampler, runner


def replay(runner, tape, sampler, seconds: float,
           recorder=None) -> "tuple[common.Timed, float]":
    """Feed the tape in TICK_BATCH calls for ``seconds``, and for at
    least RSS_TICKS ticks.

    Each batch is drawn from the tape, and each call's results folded
    into the oracle sample, outside the timed ``process`` call.
    Returns the timings and the process's peak RSS (MB) once RSS_TICKS
    ticks were in.
    """
    speed = hostinfo.SpeedTrack()
    chunks = []  # (end, wall, cpu, first latency index)
    first = len(runner.latencies)
    deadline = time.perf_counter() + seconds
    fed = 0
    rss = None
    while time.perf_counter() < deadline or fed < RSS_TICKS:
        ticks = list(itertools.islice(tape, TICK_BATCH))
        span = recorder.open("op") if recorder is not None else None
        start_index = len(runner.latencies)
        cpu0, t0 = time.process_time(), time.perf_counter()
        runner.process(ticks)
        end = time.perf_counter()
        chunks.append((end, end - t0, time.process_time() - cpu0,
                       start_index))
        if span is not None:
            recorder.close(span)
        fed += len(ticks)
        sampler.absorb()
        if rss is None and fed >= RSS_TICKS:
            rss = hostinfo.peak_rss_mb(os.getpid())
        speed.maybe_probe()  # between calls: the service is idle here
    latencies = runner.latencies[first:]
    factors = []
    wall = wall_norm = cpu = cpu_norm = 0.0
    for index, (end, seconds_, cpu_s, start_index) in enumerate(chunks):
        factor = speed.factor(end)
        stop = (chunks[index + 1][3] if index + 1 < len(chunks)
                else len(runner.latencies))
        factors.extend([factor] * (stop - start_index))
        wall += seconds_
        wall_norm += seconds_ * factor
        cpu += cpu_s
        cpu_norm += cpu_s * factor
    timed = common.Timed(work=fed, wall=wall, wall_norm=wall_norm, cpu=cpu,
                         cpu_norm=cpu_norm, latencies=latencies,
                         factors=factors, speed=speed.median_factor())
    return timed, rss


def verify(book, sampler, runner) -> oracle.Tally:
    """Stratified oracle sample of repriced positions + final aggregate."""
    from repro.stream import full_repricing_oracle

    tally = oracle.Tally()
    for rows in sampler.sample:
        for option, values in rows:
            american = (oracle.greeks_oracle(oracle.american_twin(option),
                                             STEPS)
                        if oracle.is_european_put(option) else None)
            oracle.check_greeks(tally, option, values,
                                oracle.greeks_oracle(option, STEPS), american)
    final = runner.published[-1].columns
    tally.record(dict(final) == dict(full_repricing_oracle(book)),
                 what="streamed aggregate != full_repricing_oracle")
    return tally


def run(report: common.Report, seed: int, seconds: float,
        trace: bool) -> None:
    from repro.backends import resolve_backend

    report.info["host"] = hostinfo.fingerprint(resolve_backend("auto").name)
    setups = []
    repeats = 1 if trace else SETUP_REPEATS
    for repeat in range(repeats):
        started = time.perf_counter()
        book, service, sampler, runner = set_up(seed)
        setups.append(time.perf_counter() - started)
        if repeat < repeats - 1:
            service.close()
            time.sleep(common.SETUP_GAP_S)
    tape = gen.tick_tape(seed, book)

    steal = hostinfo.StealMeter()
    probes = hostinfo.probe_ms()
    try:
        if trace:
            plain, _ = replay(runner, tape, sampler, seconds / 2)
            service_before = service.stats().as_dict()
            stream_before = runner.stats()
            recorder = tracing.Recorder()
            patch = tracing.install(recorder)
            try:
                timed, _ = replay(runner, tape, sampler, seconds / 2,
                                  recorder)
            finally:
                patch.restore()
        else:
            timed, rss = replay(runner, tape, sampler, seconds)
        probes += hostinfo.probe_ms()
        tally = verify(book, sampler, runner)
        service_stats = service.stats().as_dict()
        stream_stats = runner.stats()
    finally:
        service.close()

    perlayer.record_tally(report, tally)
    if trace:
        def delta(name):
            return getattr(stream_stats, name) - getattr(stream_before, name)

        perlayer.report_layers(
            report, recorder, wall=timed.wall,
            overhead=(common.median(timed.latencies)
                      / common.median(plain.latencies) - 1.0),
            steal=steal.fraction(), probes=probes,
            service=perlayer.service_summary([service_stats],
                                             [service_before]),
            stream={"repriced_per_revalue": (delta("revaluations")
                                             / delta("reval_batches")),
                    "suppressed_frac": (delta("suppressed_ticks")
                                        / delta("ticks"))})
        return
    common.report_timed(report, timed, "tick")
    latency_ms = np.array(timed.latencies) * 1e3
    report.add("ticks_per_s", timed.work / timed.wall, "1/s", timed.work,
               "ticks / time inside StreamRunner.process")
    report.add("cpu_ms_per_tick", timed.cpu * 1e3 / timed.work, "ms",
               timed.work)
    report.add("slo_frac", float(np.mean(latency_ms <= SLO_MS)), "frac",
               len(latency_ms),
               f"covered ticks published within {SLO_MS:g} ms")
    report.add("setup_s", common.median(setups), "s", len(setups),
               "book build + service start + first whole-book valuation")
    report.add("peak_rss_mb", rss, "MB", RSS_TICKS,
               "bench process, once RSS_TICKS ticks were in")
    report.add("stream.suppressed_frac",
               stream_stats.suppressed_ticks / stream_stats.ticks, "frac")
    report.add("host.steal_frac", steal.fraction(), "frac")
    report.add("host.probe_ms", common.median(probes), "ms", len(probes))
