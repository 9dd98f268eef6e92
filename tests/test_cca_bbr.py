"""Tests for BBR: filters, mode machine, equilibria (Section 5.2)."""

import random

import pytest

from repro import units
from repro.analysis.starvation import bbr_rtt_starvation
from repro.ccas.bbr import BBR, BW_WINDOW_ROUNDS, PROBE_BW_GAINS
from repro.sim.packet import AckInfo

from .conftest import flow, run_dumbbell

RATE = units.mbps(12)
RM = units.ms(40)


def make_info(now, rtt, rate_sample=None, delivered=0.0,
              delivered_at_send=0.0, inflight=0):
    return AckInfo(rtt=rtt, acked_bytes=1500, delivery_rate=rate_sample,
                   inflight_bytes=inflight, min_rtt=rtt, now=now,
                   delivered_bytes=delivered,
                   delivered_at_send=delivered_at_send)


class FakeSender:
    mss = 1500

    def __init__(self):
        self.next_seq = 0


def test_bandwidth_filter_takes_windowed_max():
    bbr = BBR()
    bbr.sender = FakeSender()
    for i, sample in enumerate([1e6, 3e6, 2e6]):
        bbr.round_count = i
        bbr._update_bw(make_info(i * 0.04, 0.04, rate_sample=sample))
    assert bbr.btl_bw == pytest.approx(3e6)


def test_bandwidth_filter_expires_old_rounds():
    bbr = BBR()
    bbr.sender = FakeSender()
    bbr.round_count = 0
    bbr._update_bw(make_info(0.0, 0.04, rate_sample=9e6))
    bbr.round_count = 20  # far beyond the 10-round window
    bbr._update_bw(make_info(1.0, 0.04, rate_sample=1e6))
    assert bbr.btl_bw == pytest.approx(1e6)


def test_bandwidth_filter_matches_brute_force_max():
    """The incrementally kept max equals a max over the window, exactly."""
    drops = 0
    for seed in range(60):
        rng = random.Random(seed)
        bbr = BBR()
        bbr.sender = FakeSender()
        levels = [rng.uniform(1e5, 2e6) for _ in range(4)]
        history = []        # every (round, sample) since the last clear
        for step in range(500):
            now = step * 0.01
            roll = rng.random()
            if roll < 0.01:
                bbr.on_timeout(now)
                history = []
                assert bbr.btl_bw == 0.0
                continue
            if roll < 0.25:
                bbr.round_count += rng.choice((1, 1, 1, 2, 4, 12))
            if rng.random() < 0.05:
                sample = rng.choice((None, 0.0, -1.0))   # ignored
            elif rng.random() < 0.5:
                sample = rng.choice(levels)             # equal maxima
            else:
                sample = rng.uniform(1e5, 2e6) * (1.0 - step / 1000)
            before = bbr.btl_bw
            bbr._update_bw(make_info(now, 0.04, rate_sample=sample))
            if sample is None or sample <= 0:
                assert bbr.btl_bw == before
                continue
            history.append((bbr.round_count, sample))
            horizon = bbr.round_count - BW_WINDOW_ROUNDS
            expected = max(bw for r, bw in history if r >= horizon)
            assert bbr.btl_bw == expected, f"seed {seed}, step {step}"
            drops += expected < before
    assert drops > 500      # the maximum left the window that often


def test_min_rtt_window_and_probe_trigger():
    bbr = BBR()
    bbr.sender = FakeSender()
    bbr._update_min_rtt(make_info(0.0, 0.050))
    assert bbr.min_rtt_est == pytest.approx(0.050)
    # Samples keep arriving above the estimate: stamp must NOT refresh.
    stamp = bbr._min_rtt_stamp
    for k in range(10):
        bbr._update_min_rtt(make_info(0.1 + k, 0.080))
    assert bbr._min_rtt_stamp == stamp


def test_min_rtt_stamp_refreshes_on_matching_sample():
    bbr = BBR()
    bbr.sender = FakeSender()
    bbr._update_min_rtt(make_info(0.0, 0.050))
    bbr._update_min_rtt(make_info(5.0, 0.050))
    assert bbr._min_rtt_stamp == pytest.approx(5.0)


def test_startup_exits_to_drain_then_probe_bw():
    result = run_dumbbell([flow("bbr", RM, {"seed": 3})], RATE,
                          duration=5.0, buffer_bdp=8.0)
    cca = result.scenario.flows[0].sender.cca
    assert cca.filled_pipe
    assert cca.mode in (BBR.PROBE_BW, BBR.PROBE_RTT)


@pytest.fixture(scope="module")
def single_flow():
    return run_dumbbell([flow("bbr", RM, {"seed": 3})], RATE,
                        duration=15.0, warmup=7.0, buffer_bdp=8.0)


def test_single_flow_full_utilization(single_flow):
    assert single_flow.utilization() > 0.9


def test_pacing_mode_delay_band(single_flow):
    """Pacing-mode RTT stays within ~[Rm, 1.25 Rm] (Figure 3)."""
    stats = single_flow.stats[0]
    assert stats.min_rtt < RM * 1.1
    assert stats.max_rtt < RM * 1.6  # 1.25 plus queue/quanta slack


def test_probe_bw_gain_cycle_composition():
    assert PROBE_BW_GAINS[0] == 1.25
    assert PROBE_BW_GAINS[1] == 0.75
    assert all(g == 1.0 for g in PROBE_BW_GAINS[2:])
    # The probe and drain phases cancel: average gain 1.
    assert sum(PROBE_BW_GAINS) / len(PROBE_BW_GAINS) == pytest.approx(1.0)


def test_cwnd_cap_includes_quanta():
    bbr = BBR(quanta_packets=3.0, cwnd_gain=2.0)
    bbr.btl_bw = 1e6
    bbr.min_rtt_est = 0.04
    bbr._cwnd_gain_now = 2.0
    bbr.attach(FakeSender())    # publishes the outputs
    expected = 2.0 * 1e6 * 0.04 + 3 * 1500
    assert bbr.cwnd_bytes == pytest.approx(expected)
    assert (bbr.cwnd_bytes, bbr.pacing_rate) == bbr.outputs()


def test_zero_quanta_removes_fixed_point_anchor():
    """Section 5.2: without +quanta, any cwnd split is an equilibrium."""
    bbr = BBR(quanta_packets=0.0)
    bbr.btl_bw = 1e6
    bbr.min_rtt_est = 0.04
    bbr._cwnd_gain_now = 2.0
    bbr.attach(FakeSender())
    assert bbr.cwnd_bytes == pytest.approx(2.0 * 1e6 * 0.04)


def test_probe_rtt_shrinks_cwnd():
    bbr = BBR()
    bbr.attach(FakeSender())
    bbr.on_ack(make_info(0.0, 0.04))    # min-RTT 40 ms, stamped at t = 0
    bbr.filled_pipe = True
    # 11 s on, the estimate is stale: this ACK enters PROBE_RTT and
    # publishes the 4-packet window.
    bbr.on_ack(make_info(11.0, 0.08, inflight=30000))
    assert bbr.mode == BBR.PROBE_RTT
    assert bbr.cwnd_bytes == 4 * 1500


def test_rtt_starvation_two_flows():
    """Scaled Section 5.2: the smaller-Rm flow loses badly."""
    result = bbr_rtt_starvation(rate_mbps=48.0, duration=40.0, warmup=15.0)
    tput_small_rm = result.stats[0].throughput
    tput_large_rm = result.stats[1].throughput
    assert tput_large_rm > 2.0 * tput_small_rm
