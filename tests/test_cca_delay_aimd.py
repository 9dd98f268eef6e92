"""Tests for DelayAimd (the Section 6.2 large-oscillation design)."""

import pytest

from repro import units
from repro.ccas.delay_aimd import DelayAimd
from repro.spec import ElementSpec

from .conftest import flow, run_dumbbell

RM = units.ms(40)
RATE = units.mbps(12)


def delay_aimd(threshold_ms=30.0, **kwargs):
    return flow("delay-aimd", RM, {"threshold": units.ms(threshold_ms)},
                **kwargs)


def test_threshold_validation():
    with pytest.raises(ValueError):
        DelayAimd(threshold=0.0)


@pytest.fixture(scope="module")
def single_flow():
    return run_dumbbell([delay_aimd()], RATE, duration=20.0, warmup=10.0,
                        buffer_bdp=8.0)


def test_single_flow_sawtooth_and_efficiency(single_flow):
    stats = single_flow.stats[0]
    assert single_flow.utilization() > 0.9
    cca = single_flow.scenario.flows[0].sender.cca
    assert cca.backoffs > 3
    # Large oscillation BY DESIGN: delta comparable to the threshold —
    # this is what makes it NOT delay-convergent in the paper's sense.
    delta = stats.max_rtt - stats.min_rtt
    assert delta > 0.4 * units.ms(30)


def test_delay_band_respects_threshold(single_flow):
    # Max RTT overshoots the threshold by at most ~1 in-flight window.
    assert single_flow.stats[0].max_rtt < RM + 2.5 * units.ms(30)


def test_two_clean_flows_fair():
    result = run_dumbbell([delay_aimd(), delay_aimd()], RATE,
                          duration=40.0, warmup=15.0, buffer_bdp=8.0)
    assert result.throughput_ratio() < 2.0


def poisoned_pair(rate_mbps, threshold_ms=30.0, duration=60.0):
    poison = ElementSpec("exempt_first_jitter",
                         {"eta": units.ms(10), "exempt_seqs": [0]})
    constant = ElementSpec("constant_jitter", {"eta": units.ms(10)})
    return run_dumbbell(
        [delay_aimd(threshold_ms, label="poisoned", ack_elements=[poison]),
         delay_aimd(threshold_ms, label="clean", ack_elements=[constant])],
        units.mbps(rate_mbps), duration, duration / 2, buffer_bdp=8.0)


def test_poisoned_flow_throughput_scales_with_capacity():
    """The Section 6.2 distinction: under min-RTT poisoning DelayAimd's
    victim keeps a roughly constant *share* (bounded s-unfairness),
    whereas Vegas's victim is pinned at an absolute rate (its ratio
    grows without bound as C grows = starvation)."""
    small = poisoned_pair(12.0)
    large = poisoned_pair(48.0)
    tput_small = small.stats[0].throughput
    tput_large = large.stats[0].throughput
    # Victim throughput grows with capacity...
    assert tput_large > 2.0 * tput_small
    # ...and the unfairness ratio does not blow up with capacity.
    assert large.throughput_ratio() < 3.0 * small.throughput_ratio()
