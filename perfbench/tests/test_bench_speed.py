"""The host-speed probe: rescaling arithmetic, sampling, putting SIGALRM back."""

from __future__ import annotations

import os
import signal
import time

import pytest

import speed
from speed import SpeedProbe


def test_rescale_takes_out_the_probe_cost_and_applies_the_mean_speed():
    probe = SpeedProbe("python")
    # Loop times of half and twice the reference: speeds 2 and 0.5.
    probe.samples = [probe.ref_s / 2, probe.ref_s * 2]
    probe.cost_s = 0.5
    assert probe.speed() == pytest.approx(1.25)
    assert probe.rescale(10.5) == pytest.approx(12.5)
    # With 2 workers the sampler held one of two busy cores.
    assert probe.rescale(10.25, workers=2) == pytest.approx(12.5)


def test_samples_while_the_region_runs_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe("numpy") as probe:
        end = time.perf_counter() + 8 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 3
    assert 0 < probe.cost_s < 8 * speed.INTERVAL_S
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.speed() > 0


def test_collects_the_samples_of_forked_workers():
    alarm = {signal.SIGALRM}
    with SpeedProbe() as probe:
        # The parent blocks SIGALRM while its child runs, so at most one
        # sample, taken when it unblocks, is its own.
        signal.pthread_sigmask(signal.SIG_BLOCK, alarm)
        try:
            pid = os.fork()
            if pid == 0:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, alarm)
                end = time.perf_counter() + 8 * speed.INTERVAL_S
                while time.perf_counter() < end:
                    pass
                os._exit(0)
            os.waitpid(pid, 0)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, alarm)
    assert len(probe.samples) >= 4


def test_a_region_too_short_to_sample_gets_one_sample_after_it():
    with SpeedProbe() as probe:
        pass
    assert probe.samples == [] and probe.cost_s == 0.0
    assert probe.speed() > 0
    assert len(probe.samples) == 1 and probe.cost_s == 0.0
