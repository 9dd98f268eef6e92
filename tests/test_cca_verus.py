"""Tests for the simplified Verus implementation."""


import pytest

from repro import units
from repro.ccas.verus import Verus
from repro.spec import ElementSpec

from .conftest import flow, run_dumbbell

RM = units.ms(40)
RATE = units.mbps(12)


@pytest.fixture(scope="module")
def single_flow():
    return run_dumbbell([flow("verus", RM)], RATE, duration=20.0,
                        warmup=10.0, buffer_bdp=8.0)


def test_single_flow_fully_utilizes(single_flow):
    assert single_flow.utilization() > 0.9


def test_delay_converges_to_target_band(single_flow):
    """Verus is delay-convergent: RTT settles inside
    [min_target, max_target] x min_rtt with a narrow band."""
    stats = single_flow.stats[0]
    assert stats.mean_rtt < 4.5 * RM
    assert stats.mean_rtt > 1.0 * RM
    assert (stats.max_rtt - stats.min_rtt) < 0.5 * RM


def test_two_flows_share_fairly():
    result = run_dumbbell([flow("verus", RM), flow("verus", RM)], RATE,
                          duration=30.0, warmup=15.0, buffer_bdp=8.0)
    assert result.throughput_ratio() < 2.0


def test_profile_learning():
    cca = Verus()
    cca.cwnd = 10.0
    for rtt in (0.050, 0.052, 0.054):
        cca._learn(cca.cwnd, rtt)
    bucket = cca._bucket(10.0)
    assert 0.050 <= cca._profile[bucket] <= 0.054


def test_window_for_delay_picks_largest_feasible():
    cca = Verus(bucket_packets=2.0)
    cca._profile = {5: 0.050, 10: 0.070, 20: 0.120}
    window = cca._window_for_delay(0.080)
    assert window == pytest.approx((10 + 0.5) * 2.0)
    assert cca._window_for_delay(0.040) is None


def test_min_rtt_poisoning_biases_verus():
    """The paper places Verus in the delay-convergent family; the same
    min-RTT poisoning (10 ms) that bites Vegas biases Verus too: the
    poisoned flow's delay target (a multiple of its min RTT) is
    deflated relative to its true path."""
    poison = ElementSpec("exempt_first_jitter",
                         {"eta": units.ms(10), "exempt_seqs": [0]})
    constant = ElementSpec("constant_jitter", {"eta": units.ms(10)})
    result = run_dumbbell(
        [flow("verus", RM, label="poisoned", ack_elements=[poison]),
         flow("verus", RM, label="clean", ack_elements=[constant])],
        units.mbps(24), duration=40.0, warmup=20.0, buffer_bdp=8.0)
    assert result.stats[1].throughput > 1.3 * result.stats[0].throughput
