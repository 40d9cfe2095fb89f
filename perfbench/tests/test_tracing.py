"""Self-time arithmetic on hand-built span trees, and the wrappers."""

import pytest

import tracing
from tracing import Span


def _tree():
    #   op [0, 10]
    #   +-- api.price [1, 9]
    #       +-- engine.run [2, 8]
    #           +-- backends.roll [3, 5]
    #           +-- backends.roll [4, 7]   (overlaps the first)
    return [
        Span(1, "op", 0.0, 10.0),
        Span(2, "api.price", 1.0, 9.0, (1,)),
        Span(3, "engine.run", 2.0, 8.0, (2,)),
        Span(4, "backends.roll", 3.0, 5.0, (3,)),
        Span(5, "backends.roll", 4.0, 7.0, (3,)),
    ]


def test_self_time_subtracts_the_union_of_children():
    spans = _tree()
    children = tracing.children_map(spans)
    by_id = {span.id: span for span in spans}
    assert tracing.self_time(by_id[1], children) == pytest.approx(2.0)
    assert tracing.self_time(by_id[2], children) == pytest.approx(2.0)
    # children cover [3, 7]: union 4, not the 5 of their summed lengths
    assert tracing.self_time(by_id[3], children) == pytest.approx(2.0)
    assert tracing.self_time(by_id[4], children) == pytest.approx(2.0)


def test_attribution_adds_up_to_the_root():
    spans = [span for span in _tree() if span.id != 5]
    shares, total = tracing.attribute(spans, [spans[0]])
    assert total == pytest.approx(10.0)
    assert shares == pytest.approx(
        {"op": 2.0, "api": 2.0, "engine": 4.0, "backends": 2.0})
    assert sum(shares.values()) == pytest.approx(total)


def test_children_are_clipped_to_their_parent():
    spans = [Span(1, "op", 0.0, 4.0),
             Span(2, "service.request", 1.0, 6.0, (1,)),
             Span(3, "engine.run", 5.0, 6.0, (2,))]
    shares, total = tracing.attribute(spans, [spans[0]])
    assert shares == pytest.approx({"op": 1.0, "service": 3.0})
    assert sum(shares.values()) == pytest.approx(total)


def test_a_shared_child_counts_once_per_request():
    # two requests coalesced into one engine flush
    spans = [Span(1, "op", 0.0, 4.0), Span(2, "op", 1.0, 4.0),
             Span(3, "engine.run", 2.0, 3.0, (1, 2))]
    shares, total = tracing.attribute(spans, spans[:2])
    assert total == pytest.approx(7.0)
    assert shares == pytest.approx({"op": 5.0, "engine": 2.0})


def test_recorder_nests_by_thread_stack_and_round_trips(tmp_path):
    recorder = tracing.Recorder()
    outer = recorder.open("op")
    inner = recorder.open("api.price")
    recorder.close(inner)
    recorder.close(outer)
    assert inner.parents == (outer.id,) and inner.rid == outer.id
    path = tmp_path / "spans.json"
    recorder.dump(path)
    copy = tracing.Recorder()
    copy.merge_file(path)
    assert [s.as_list() for s in copy.spans] == [
        s.as_list() for s in recorder.spans]


def test_install_records_and_restore_puts_originals_back():
    import repro
    import repro.engine.scheduler as scheduler
    from repro.engine import PricingEngine

    before = (repro.price, PricingEngine.run,
              scheduler.simulate_kernel_b_batch)
    option = repro.Option(spot=100.0, strike=100.0, rate=0.03,
                          volatility=0.2, maturity=1.0)
    recorder = tracing.Recorder()
    patch = tracing.install(recorder)
    try:
        root = recorder.open("op")
        repro.price([option], steps=16, kernel="iv_b")
        recorder.close(root)
    finally:
        patch.restore()
    assert (repro.price, PricingEngine.run,
            scheduler.simulate_kernel_b_batch) == before
    names = {span.name for span in recorder.spans}
    assert {"op", "api.price", "engine.run", "batch_sim.simulate",
            "backends.roll"} <= names
    assert recorder.counters["backends.roll.nodes"] == 16 * 17 // 2
    shares, total = tracing.attribute(recorder.spans, [root])
    assert sum(shares.values()) == pytest.approx(total)
