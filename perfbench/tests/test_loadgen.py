"""Open-loop due-time accounting: a stall is charged to later requests."""

import threading
import time
from types import SimpleNamespace

import common
import w_quote_http

RATE = w_quote_http.RATE
STALL = (0.2, 0.7)  # seconds after the first request is due


class StallingServer:
    """Answers in 2 ms, except that nothing is answered during STALL."""

    def __init__(self):
        self.t0 = None
        self.lock = threading.Lock()

    def client(self):
        server = self

        class Client:
            def price(self, request):
                now = time.monotonic()
                with server.lock:
                    if server.t0 is None:
                        server.t0 = now
                start, end = (server.t0 + STALL[0], server.t0 + STALL[1])
                if start <= now < end:
                    time.sleep(end - now)
                time.sleep(0.002)
                return SimpleNamespace(prices=[1.0])

            def close(self):
                pass

        return Client()


def test_stall_is_charged_from_due_time_and_shows_as_late_sends():
    server = StallingServer()
    records = w_quote_http.open_loop(server.client, list(range(40)), 1.0)
    assert len(records) == 40 and all(r[3] is not None for r in records)
    t0 = records[0][0]
    # due times are fixed by the schedule, not by when sends happened
    assert all(abs(r[0] - (t0 + i / RATE)) < 1e-9
               for i, r in enumerate(records))
    latency = [r[2] - r[0] for r in records]
    late = [(r[1] - r[0]) * 1e3 for r in records]
    # due well inside the stall (the server's clock starts at the first
    # send, a hair after the first due time)
    stalled = [i for i, r in enumerate(records)
               if STALL[0] + 0.05 <= r[0] - t0 < STALL[1] - 0.1]
    assert stalled
    for i in stalled:
        # answered only after the stall ends, measured from its due time
        assert records[i][2] - t0 >= STALL[1] - 0.01
        assert latency[i] >= records[i][2] - records[i][1]
    # both connections were stuck, so later requests went out late
    assert max(late) > 200.0
    assert common.percentile(late, 99) > 100.0
    # and once the stall clears the backlog drains: the last sends are
    # on time again
    assert late[-1] < 50.0


def test_no_stall_means_no_late_sends():
    class Fast:
        def price(self, request):
            time.sleep(0.002)
            return SimpleNamespace(prices=[1.0])

        def close(self):
            pass

    records = w_quote_http.open_loop(Fast, list(range(20)), 0.5)
    late = [(r[1] - r[0]) * 1e3 for r in records]
    assert common.percentile(late, 99) < 20.0
