"""Host-speed normalisation uses the probes nearest in time."""

import time

import pytest

import hostinfo


def test_factor_follows_the_regime_around_each_moment():
    track = hostinfo.SpeedTrack()
    ref = hostinfo.PROBE_REF_MS
    # fast for t < 3, twice as slow afterwards
    for t in range(6):
        track.record(float(t), ref if t < 3 else 2 * ref)
    assert track.factor(0.5) == pytest.approx(1.0)
    assert track.factor(5.0) == pytest.approx(0.5)
    assert track.median_factor() == pytest.approx(2 / 3)


def test_one_outlier_probe_does_not_move_the_factor():
    track = hostinfo.SpeedTrack()
    ref = hostinfo.PROBE_REF_MS
    for t, probe in enumerate((ref, ref, 10 * ref, ref, ref)):
        track.record(float(t), probe)
    assert track.factor(2.0) == pytest.approx(1.0)


def test_side_process_probes_and_stops(monkeypatch):
    monkeypatch.setattr(hostinfo, "PROBE_EVERY_S", 0.05)
    probe = hostinfo.ProbeProcess()
    time.sleep(0.4)
    track = probe.stop()
    assert probe._process.poll() is not None
    assert len(track.probes) >= 2
    assert all(p > 0 for p in track.probes)
