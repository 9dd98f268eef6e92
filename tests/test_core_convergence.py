"""Tests for Definition 1 measurement (repro.core.convergence)."""


import numpy as np
import pytest

from repro import units
from repro.core.convergence import (ConvergenceCertificate,
                                    find_convergence_time,
                                    measure_cca_range,
                                    measure_converged_range)
from repro.errors import ConvergenceError
from repro.model.cca import FluidAimd, WindowTargetCCA
from repro.model.fluid import Trajectory

RM = 0.05
C = units.mbps(12)


def synthetic_trajectory(delays, dt=1e-3, link_rate=C, rm=RM):
    delays = np.asarray(delays, dtype=float)
    times = np.arange(len(delays)) * dt
    return Trajectory(times=times, delays=delays,
                      rates=np.full(len(delays), link_rate),
                      link_rate=link_rate, rm=rm, dt=dt)


def test_convergence_time_of_step_trajectory():
    # 1 s of transient at high delay, then flat at the equilibrium.
    delays = [0.2] * 1000 + [0.08] * 3000
    traj = synthetic_trajectory(delays)
    t_conv = find_convergence_time(traj)
    assert 0.9 <= t_conv <= 1.1


def test_convergence_time_zero_for_flat_trajectory():
    traj = synthetic_trajectory([0.08] * 2000)
    assert find_convergence_time(traj) == 0.0


def test_never_converging_trajectory_reports_wide_delta():
    # A delay that keeps growing has no equilibrium; the measurement
    # surfaces this as a converged "range" as wide as the tail itself,
    # which downstream certificates reject.
    delays = np.linspace(0.05, 1.0, 4000)
    measured = measure_converged_range(synthetic_trajectory(delays))
    assert measured.delta > 0.1


def test_too_short_trajectory_raises():
    with pytest.raises(ConvergenceError):
        find_convergence_time(synthetic_trajectory([0.08] * 5))


def test_measure_converged_range_reports_tail_band():
    delays = [0.3] * 500 + [0.081, 0.079] * 2000
    measured = measure_converged_range(synthetic_trajectory(delays))
    assert measured.d_min == pytest.approx(0.079)
    assert measured.d_max == pytest.approx(0.081)
    assert measured.delta == pytest.approx(0.002)


def test_measure_cca_range_window_cca():
    measured = measure_cca_range(
        lambda: WindowTargetCCA(alpha=6000.0, rm=RM, pedestal=0.04,
                                initial=C / 2),
        link_rate=C, rm=RM, duration=20.0)
    expected = RM + 0.04 + 6000.0 / C
    assert measured.d_max == pytest.approx(expected, rel=0.05)
    assert measured.delta < 0.002


def certificate(cca_factory, rates, d_max_bound, delta_bound):
    """Definition 1's verdict over ranges measured at ``rates``."""
    ranges = [measure_cca_range(cca_factory, rate, RM, duration=20.0)
              for rate in rates]
    return ConvergenceCertificate(ranges=ranges, lam=min(rates) * 0.99,
                                  d_max_bound=d_max_bound,
                                  delta_bound=delta_bound)


def test_certificate_for_delay_convergent_cca():
    rates = [C, 4 * C, 16 * C]
    cert = certificate(
        lambda: WindowTargetCCA(alpha=6000.0, rm=RM, pedestal=0.02,
                                initial=C),
        rates, d_max_bound=0.1, delta_bound=0.005)
    assert cert.is_delay_convergent
    assert cert.delta_max < 0.005
    assert len(cert.ranges) == 3


def test_certificate_rejects_aimd_with_tight_delta_bound():
    """AIMD oscillates over the buffer: fails any small delta bound."""
    rates = [C, 2 * C]
    cert = certificate(
        lambda: FluidAimd(rm=RM, threshold=0.05, initial=C / 2),
        rates, d_max_bound=1.0, delta_bound=0.001)
    assert not cert.is_delay_convergent


def test_delta_decreases_with_link_rate_for_vegas_family():
    """Figure 2's shape: d_max(C) is decreasing in C."""
    rates = [C, 4 * C, 16 * C]
    measured = [measure_cca_range(
        lambda: WindowTargetCCA(alpha=6000.0, rm=RM, pedestal=0.0,
                                initial=r / 2),
        link_rate=r, rm=RM, duration=20.0) for r in rates]
    d_maxes = [m.d_max for m in measured]
    assert d_maxes[0] > d_maxes[1] > d_maxes[2]
    assert all(m.d_max >= RM for m in measured)
