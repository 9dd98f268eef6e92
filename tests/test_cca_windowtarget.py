"""Tests for the packet-level WindowTarget CCA."""

import pytest

from repro import units
from repro.ccas.windowtarget import WindowTarget

from .conftest import flow, run_dumbbell

RM = 0.05
RATE = units.mbps(24)


def window_target(**params):
    return flow("window-target", RM, {"rm": RM, **params})


def test_parameter_validation():
    with pytest.raises(ValueError):
        WindowTarget(alpha=0.0)
    with pytest.raises(ValueError):
        WindowTarget(kappa=-1.0)


def test_converges_to_predicted_rtt():
    result = run_dumbbell([window_target()], RATE, duration=20.0,
                          warmup=10.0)
    expected = RM + 0.04 + 6000.0 / RATE
    assert result.stats[0].mean_rtt == pytest.approx(expected, rel=0.05)
    assert result.utilization() > 0.95


def test_initial_window_preserves_convergence():
    """Handing the converged window skips the transient — the property
    the packet-level Theorem 1 replay depends on."""
    expected_rtt = RM + 0.04 + 6000.0 / RATE
    window = RATE * expected_rtt
    result = run_dumbbell([window_target(initial_window=window)], RATE,
                          duration=4.0, warmup=1.0)
    # Converged from the first second: tight RTT band.
    stats = result.stats[0]
    assert stats.max_rtt - stats.min_rtt < 0.01
    assert stats.mean_rtt == pytest.approx(expected_rtt, rel=0.05)


def test_two_flows_share_fairly():
    result = run_dumbbell([window_target(), window_target()], RATE,
                          duration=30.0, warmup=15.0)
    assert result.throughput_ratio() < 1.5


def test_deterministic_runs():
    def run():
        return run_dumbbell([window_target()], RATE, duration=5.0,
                            warmup=1.0)

    a = run()
    b = run()
    assert a.stats[0].throughput == b.stats[0].throughput
    assert a.stats[0].mean_rtt == b.stats[0].mean_rtt


def test_backs_off_on_loss():
    cca = WindowTarget(rm=RM, initial_window=100 * 1500.0)
    cca.on_loss(0.0, 5, 1500)
    assert cca.window == pytest.approx(70 * 1500.0)
