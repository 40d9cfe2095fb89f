"""quote_http: an open loop of quote strips against ``repro serve``.

The server runs in its own process tree, started with the public CLI
on its defaults (2 shards, default ``ServiceConfig``).  Requests are
strips of 1-8 mixed contracts at N=256 that keep the wire defaults for
kernel, precision and family (the ``reference`` kernel at the seed).
A fifth of them repeat a recent strip word for word, as a re-quote
would.  Requests are due at a fixed rate, well below what the seed
sustains, and go out over two keep-alive connections; each latency is
timed from the request's due time, so a stall charges later requests.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time

import common
import gen
import hostinfo
import oracle
import perlayer
import tracing

NAME = "quote_http"
STEPS = 256
POOL = 512
RATE = 40.0  # requests per second offered
CONNECTIONS = 2
SETUP_REPEATS = 5
#: latency limit of ``slo_frac``, from each request's due time
SLO_MS = 50.0


class Server:
    """A ``repro serve`` process tree on an ephemeral port."""

    def __init__(self, argv):
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=common.child_env(NAME), text=True, start_new_session=True)
        try:
            self.host, self.port = self._address(timeout_s=60.0)
        except BaseException:
            self.stop()
            raise

    def _address(self, timeout_s: float):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith("serving on http://"):
                address = line.split()[2][len("http://"):]
                host, port = address.rsplit(":", 1)
                return host, int(port)
        raise RuntimeError("repro serve did not report its address")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.communicate(timeout=30)
        # shards and their resource tracker are in the server's own
        # process group; make sure none outlives the server
        hostinfo.kill_group(self.proc.pid)


def plain_server() -> Server:
    return Server([sys.executable, "-m", "repro", "serve", "--port", "0"])


def traced_server(trace_dir: str) -> Server:
    return Server([sys.executable, str(common.HERE / "serve_launcher.py"),
                   trace_dir, "--port", "0"])


def wait_ready(server: Server, first_request) -> None:
    """Poll ``/healthz`` until 200, then price ``first_request``."""
    from repro.errors import ShardCrashError
    from repro.serve.client import ServeClient

    deadline = time.monotonic() + 60.0
    with ServeClient(server.host, server.port, timeout_s=30.0) as client:
        while True:
            try:
                status, _doc = client.healthz()
            except ShardCrashError:
                status = 0
            if status == 200:
                break
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.02)
        client.price(first_request)


def start(make, first_request) -> "tuple[Server, float]":
    """Spawn a server and time spawn -> healthy -> first quote."""
    started = time.perf_counter()
    server = make()
    try:
        wait_ready(server, first_request)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def client_factory(server: Server):
    from repro.serve.client import ServeClient

    return lambda: ServeClient(server.host, server.port, timeout_s=60.0)


def open_loop(make_client, requests, seconds: float, recorder=None):
    """Offer ``requests`` at ``RATE`` for ``seconds``.

    Request ``i`` is due at ``t0 + i / RATE``.  Each of ``CONNECTIONS``
    workers takes the next request as soon as it is free and sends it
    at its due time, or at once if it is already late.  Returns one
    ``(due, sent, done, prices or None, error or None)`` record per
    request, in due order.
    """
    from repro.errors import ReproError

    n = min(len(requests), int(RATE * seconds))
    records = [None] * n
    lock = threading.Lock()
    cursor = [0]
    t0 = time.monotonic() + 0.05

    def worker():
        client = make_client()
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= n:
                    return
                due = t0 + index / RATE
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent = time.monotonic()
                request = requests[index]
                span = None
                if recorder is not None:
                    span = recorder.open("op", tag=tracing.request_key(
                        request))
                    span.start = due
                    late = recorder.detached("loadgen.late")
                    late.start = due
                    recorder.finish(late, end=sent)
                try:
                    prices = client.price(request).prices
                except ReproError as exc:
                    prices, error = None, f"{type(exc).__name__}: {exc}"
                else:
                    error = None
                done = time.monotonic()
                if span is not None:
                    recorder.close(span, end=done)
                records[index] = (due, sent, done, prices, error)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, name=f"loadgen-{i}")
               for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def measured_loop(server: Server, plan, requests, seconds: float,
                  recorder=None):
    """:func:`open_loop` against ``server``, with the server tree's CPU
    time and a side-process speed track.

    Returns ``(Timed, records)``.  The work unit is an option answered;
    the offered rate bounds throughput, so it is not normalised.
    """
    probe = hostinfo.ProbeProcess()
    try:
        cpu0 = hostinfo.tree_cpu_seconds(server.proc.pid)
        records = open_loop(client_factory(server), requests, seconds,
                            recorder)
        cpu = hostinfo.tree_cpu_seconds(server.proc.pid) - cpu0
    finally:
        speed = probe.stop()
    wall = max(r[2] for r in records) - records[0][0]
    options = sum(len(strip) for strip, r in zip(plan, records)
                  if r[3] is not None)
    latencies = [r[2] - r[0] for r in records]
    timed = common.Timed(
        work=options, wall=wall, wall_norm=wall, cpu=cpu,
        cpu_norm=cpu * speed.median_factor(), latencies=latencies,
        factors=[speed.factor(r[0]) for r in records],
        speed=speed.median_factor())
    return timed, records


def server_snapshot(server: Server) -> "tuple[dict, dict]":
    """``(service summary, serve summary)`` from ``GET /stats``."""
    from repro.serve.client import ServeClient

    with ServeClient(server.host, server.port, timeout_s=60.0) as client:
        document = client.stats()
    shards = [shard for shard in document["shards"] if shard is not None]
    requests = [int(shard["requests"]) for shard in shards]
    transported = document["shm_results"] + document["pickle_results"]
    serve = {
        "server_ms_mean": document["mean_request_s"] * 1e3,
        "shard_max_share": max(requests) / sum(requests) if sum(requests)
        else 0.0,
        "shm_frac": (document["shm_results"] / transported
                     if transported else 0.0),
        "errors": int(document["errors"]),
    }
    return perlayer.service_summary(shards), serve


def verify(plan, pool, expected, records) -> oracle.Tally:
    tally = oracle.Tally()
    for strip, record in zip(plan, records):
        _due, _sent, _done, prices, error = record
        if prices is None:
            tally.record_missing(len(strip), error)
            continue
        for offset, index in enumerate(strip):
            oracle.check_price(tally, pool[index], float(prices[offset]),
                               expected[index])
    return tally


def link_remote(recorder) -> None:
    """Parent each shard-side ``service.request`` span under the client
    call that sent it (matched by content key, first come first served).
    """
    local, remote = {}, {}
    ops = {span.id: span for span in recorder.spans if span.name == "op"}
    for span in sorted(recorder.spans, key=lambda s: s.start):
        if span.name == "serve.client":
            op = ops.get(span.parents[0]) if span.parents else None
            if op is not None:
                local.setdefault(op.tag, []).append(span)
        elif span.name == "service.request" and span.tag is not None:
            remote.setdefault(span.tag, []).append(span)
    for key, spans in local.items():
        for client_span, shard_span in zip(spans, remote.get(key, ())):
            shard_span.parents = (client_span.id,)
            shard_span.rid = client_span.rid


def run(report: common.Report, seed: int, seconds: float,
        trace: bool) -> None:
    from repro import PricingRequest
    from repro.backends import resolve_backend

    pool = gen.option_book(seed, POOL, 4)
    expected = [oracle.price_oracle(option, STEPS) for option in pool]
    phase = seconds / 2 if trace else seconds
    plan = gen.quote_plan(seed, POOL, int(RATE * seconds) + 1)
    requests = [PricingRequest(options=tuple(pool[i] for i in strip),
                               steps=STEPS) for strip in plan]
    first = PricingRequest(options=(pool[0],), steps=STEPS)
    report.info["host"] = hostinfo.fingerprint(resolve_backend("auto").name)
    warm, _ = start(plain_server, first)  # warms the cnative cache
    warm.stop()

    steal = hostinfo.StealMeter()
    probes = hostinfo.probe_ms()
    if trace:
        server, _ = start(plain_server, first)
        try:
            plain, plain_records = measured_loop(server, plan, requests,
                                                 phase)
        finally:
            server.stop()
        recorder = tracing.Recorder()
        with tempfile.TemporaryDirectory(dir=common.WORK) as trace_dir:
            patch = tracing.install(recorder, client=True)
            try:
                server, _ = start(lambda: traced_server(trace_dir), first)
                try:
                    timed, records = measured_loop(server, plan, requests,
                                                   phase, recorder)
                    service, serve = server_snapshot(server)
                finally:
                    server.stop()
            finally:
                patch.restore()
            for name in os.listdir(trace_dir):
                recorder.merge_file(os.path.join(trace_dir, name))
        link_remote(recorder)
    else:
        setups = []
        for repeat in range(SETUP_REPEATS):
            server, elapsed = start(plain_server, first)
            setups.append(elapsed)
            if repeat < SETUP_REPEATS - 1:
                server.stop()
                time.sleep(common.SETUP_GAP_S)
        try:
            timed, records = measured_loop(server, plan, requests, phase)
            rss = hostinfo.tree_peak_rss_mb(server.proc.pid)
            service, serve = server_snapshot(server)
        finally:
            server.stop()
    probes += hostinfo.probe_ms()

    tally = verify(plan, pool, expected, records)
    perlayer.record_tally(report, tally)
    if trace:
        plain_late = [(r[1] - r[0]) * 1e3 for r in plain_records]
        serve["errors"] += sum(1 for r in records if r[3] is None)
        perlayer.report_layers(
            report, recorder, wall=timed.wall,
            overhead=(common.median(timed.latencies)
                      / common.median(plain.latencies) - 1.0),
            steal=steal.fraction(), probes=probes, service=service,
            serve=serve, late_p99=common.percentile(plain_late, 99))
        return
    common.report_timed(report, timed, "option")
    n = len(records)
    late_ms = [(r[1] - r[0]) * 1e3 for r in records]
    within = sum(1 for r in records
                 if r[3] is not None and (r[2] - r[0]) * 1e3 <= SLO_MS)
    report.add("offered_rps", RATE, "1/s", n)
    report.add("cpu_ms_per_option", timed.cpu * 1e3 / timed.work, "ms",
               timed.work, "server process tree")
    report.add("slo_frac", within / n, "frac", n,
               f"answered OK within {SLO_MS:g} ms of due time")
    report.add("setup_s", common.median(setups), "s", len(setups),
               "spawn -> /healthz 200 -> first quote")
    report.add("peak_rss_mb", rss, "MB", note="server process tree")
    report.add("loadgen.late_ms_p99", common.percentile(late_ms, 99), "ms", n)
    report.add("serve.shard_max_share", serve["shard_max_share"], "frac")
    report.add("service.cache_hit_rate",
               service["cache_hits"] / max(1, service["cache_hits"]
                                           + service["cache_misses"]),
               "frac")
    report.add("host.steal_frac", steal.fraction(), "frac")
    report.add("host.probe_ms", common.median(probes), "ms", len(probes))
