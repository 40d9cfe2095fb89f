"""Per-layer metrics of a traced run, plus the ``ok_frac`` tally.

Every workload reports every per-layer metric: a layer the workload
does not use reads 0.  Busy fractions are summed span time over the
traced phase's wall time (they can exceed 1 when layers run in
parallel processes).
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile

import common
import tracing


def record_tally(report: common.Report, tally) -> None:
    """``ok_frac``, ``attempted``/``failed`` and correctness."""
    report.attempted = tally.checked
    report.failed = tally.misses
    report.add("ok_frac", tally.ok_frac, "frac", tally.checked,
               f"{tally.explained} misses are the known European-put "
               f"defect")
    for problem in tally.unexplained[:5]:
        report.incorrect(problem)
    if len(tally.unexplained) > 5:
        report.incorrect(f"... {len(tally.unexplained) - 5} more")


def service_summary(snapshots, before=None) -> dict:
    """Sum ``ServiceStats.as_dict()`` snapshots (one per shard).

    ``before`` (one snapshot per shard, same order) is subtracted, so
    the summary covers only what happened in between.
    """
    keys = ("flushes", "flush_deadline", "cache_hits", "cache_misses",
            "inflight_joins", "shed")
    before = before or [dict.fromkeys(keys + ("mean_flush_options",), 0)
                        for _ in snapshots]
    out = {key: sum(int(s[key]) - int(b[key])
                    for s, b in zip(snapshots, before)) for key in keys}
    flushed = sum(s["mean_flush_options"] * s["flushes"]
                  - b["mean_flush_options"] * b["flushes"]
                  for s, b in zip(snapshots, before))
    out["options_per_flush"] = (flushed / out["flushes"] if out["flushes"]
                                else 0.0)
    return out


def compile_seconds(workload: str) -> float:
    """One cold cnative compile into an empty cache, in a fresh process."""
    common.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=common.WORK) as empty:
        code = ("from repro.backends import get_backend\n"
                "print(get_backend('cnative').compile_seconds)\n")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=300,
            env=common.child_env(workload, {"XDG_CACHE_HOME": empty}))
    if out.returncode != 0:
        raise RuntimeError(f"cold cnative compile failed: {out.stderr}")
    return float(out.stdout.split()[-1])


def _spans(recorder, name):
    return [span for span in recorder.spans if span.name == name]


def _busy(spans) -> float:
    return sum(span.duration for span in spans)


def _p50(values) -> float:
    values = list(values)
    return common.median(values) if values else 0.0


def _self_sum(spans, children) -> float:
    return sum(tracing.self_time(span, children) for span in spans)


def report_layers(report: common.Report, recorder, *, wall: float,
                  overhead: float, steal: float, probes,
                  service=None, serve=None, stream=None,
                  late_p99: float = 0.0) -> None:
    """Derive every per-layer metric from the recorder and snapshots.

    :param service: :func:`service_summary` of the service stats, or
        ``None``.
    :param serve: dict with ``server_ms_mean``, ``shard_max_share``,
        ``shm_frac``, ``errors`` or ``None``.
    :param stream: dict with ``repriced_per_revalue`` and
        ``suppressed_frac`` or ``None``.
    """
    recorder.dump(common.WORK / f"spans-{report.workload}.json")
    children = tracing.children_map(recorder.spans)
    count = recorder.counters
    add = report.add

    rolls = _spans(recorder, "backends.roll")
    roll_busy = _busy(rolls)
    add("backends.roll.calls", count["backends.roll.calls"], "count")
    add("backends.roll.busy_frac", roll_busy / wall, "frac", len(rolls))
    add("backends.roll.nodes", count["backends.roll.nodes"], "count")
    add("backends.roll.mnodes_per_s",
        count["backends.roll.nodes"] / roll_busy / 1e6 if roll_busy else 0.0,
        "Mnodes/s", len(rolls))
    add("backends.roll.bytes_computed", count["backends.roll.bytes_computed"],
        "bytes", note="computed from the recurrence, not measured")
    add("backends.compile_s", compile_seconds(report.workload), "s",
        note="one cold compile into an empty cache")

    simulate = _spans(recorder, "batch_sim.simulate")
    add("batch_sim.simulate.busy_ms", _busy(simulate) * 1e3, "ms",
        len(simulate))
    add("batch_sim.self_ms", _self_sum(simulate, children) * 1e3, "ms",
        len(simulate))

    for name in ("run", "run_greeks"):
        spans = _spans(recorder, f"engine.{name}")
        add(f"engine.{name}.calls", count[f"engine.{name}.calls"], "count")
        add(f"engine.{name}.self_ms", _self_sum(spans, children) * 1e3,
            "ms", len(spans))
    add("engine.retries", count["engine.retries"], "count")
    add("engine.quarantined", count["engine.quarantined"], "count")

    pricers = _spans(recorder, "finance.price_binomial")
    add("finance.price_binomial.calls",
        count["finance.price_binomial.calls"], "count")
    add("finance.price_binomial.busy_frac", _busy(pricers) / wall, "frac",
        len(pricers))

    facade = _spans(recorder, "api.price")
    add("api.price.calls", count["api.price.calls"], "count")
    add("api.price.ms_p50", _p50(s.duration * 1e3 for s in facade), "ms",
        len(facade))
    api_self, api_total = tracing.attribute(recorder.spans, facade)
    add("api.price.self_frac",
        api_self.get("api", 0.0) / api_total if api_total else 0.0, "frac",
        len(facade))

    service = service or {}
    flushes = service.get("flushes", 0)
    lookups = service.get("cache_hits", 0) + service.get("cache_misses", 0)
    add("service.submit.calls", count["service.submit.calls"], "count")
    add("service.wait_ms_p50", _p50(recorder.samples["service.wait_ms"]),
        "ms", len(recorder.samples["service.wait_ms"]),
        "submit -> start of the engine call carrying it")
    add("service.result_ms_p50", _p50(recorder.samples["service.result_ms"]),
        "ms", len(recorder.samples["service.result_ms"]))
    add("service.flushes", flushes, "count")
    add("service.options_per_flush", service.get("options_per_flush", 0.0),
        "count")
    add("service.deadline_flush_frac",
        service.get("flush_deadline", 0) / flushes if flushes else 0.0,
        "frac")
    add("service.cache_hit_rate",
        service.get("cache_hits", 0) / lookups if lookups else 0.0, "frac",
        lookups)
    add("service.inflight_joins", service.get("inflight_joins", 0), "count")
    add("service.shed", service.get("shed", 0), "count")

    clients = _spans(recorder, "serve.client")
    codec = []
    for span in clients:
        codec.append(sum(kid.duration for kid in children.get(span.id, ())
                         if kid.name.startswith("serve.codec.")))
    serve = serve or {}
    add("serve.rtt_ms_p50", _p50(s.duration * 1e3 for s in clients), "ms",
        len(clients))
    add("serve.codec_us_p50", _p50(c * 1e6 for c in codec), "us",
        len(codec), "to_dict + JSON + from_dict, client side")
    add("serve.server_ms_mean", serve.get("server_ms_mean", 0.0), "ms")
    add("serve.shard_max_share", serve.get("shard_max_share", 0.0), "frac")
    add("serve.shm_frac", serve.get("shm_frac", 0.0), "frac")
    add("serve.errors", serve.get("errors", 0), "count")

    applies = _spans(recorder, "stream.apply")
    revalues = _spans(recorder, "stream.revalue")
    outside = []
    for span in revalues:
        covered = [kid for kid in children.get(span.id, ())
                   if kid.name == "service.request"]
        inside = tracing.Span(0, "", span.start, span.end)
        outside.append(tracing.self_time(inside, {0: covered}))
    stream = stream or {}
    add("stream.apply_us_p50", _p50(s.duration * 1e6 for s in applies), "us",
        len(applies))
    add("stream.revalue_ms_p50", _p50(s.duration * 1e3 for s in revalues),
        "ms", len(revalues))
    add("stream.revalue_self_ms", _p50(t * 1e3 for t in outside), "ms",
        len(outside), "median per revalue, outside service submit->result")
    aggregates = _spans(recorder, "stream.aggregate")
    add("stream.aggregate_ms_p50", _p50(s.duration * 1e3 for s in aggregates),
        "ms", len(aggregates))
    add("stream.repriced_per_revalue", stream.get("repriced_per_revalue", 0.0),
        "count")
    add("stream.suppressed_frac", stream.get("suppressed_frac", 0.0), "frac")

    add("loadgen.late_ms_p99", late_p99, "ms")
    add("host.steal_frac", steal, "frac")
    add("host.probe_ms", common.median(probes), "ms", len(probes))
    add("trace.overhead_frac", overhead, "frac",
        note="traced / untraced latency_p50 - 1")

    roots = _spans(recorder, "op")
    shares, total = tracing.attribute(recorder.spans, roots)
    attributed = 0.0
    for layer in tracing.LAYERS:
        share = shares.get(layer, 0.0) / total if total else 0.0
        attributed += share
        add(f"layer.{layer}.self_frac", share, "frac", len(roots))
    add("trace.unattributed_frac", 1.0 - attributed, "frac", len(roots),
        "benchmark loop, load generator and unwrapped code")
    report.info["trace"] = json.dumps(
        {k: round(v, 6) for k, v in sorted(shares.items())})
