"""Tests for NewReno and Cubic (the non-delay-convergent baselines),
and for the cut and reset every ``WindowCCA`` shares."""

import pytest

from repro import resolve, units
from repro.analysis.starvation import loss_based_delayed_acks
from repro.ccas import registry
from repro.ccas.base import WindowCCA
from repro.ccas.cubic import Cubic
from repro.ccas.delay_aimd import DelayAimd
from repro.ccas.reno import NewReno

from .conftest import flow, run_dumbbell

RATE = units.mbps(6)
RM = units.ms(60)


def run_single(cca, duration=20.0):
    return run_dumbbell([flow(cca, RM)], RATE, duration, duration / 2,
                        buffer_bdp=1.0)


@pytest.fixture(scope="module")
def reno():
    return run_single("reno")


class TestNewReno:
    def test_high_utilization_with_bdp_buffer(self, reno):
        assert reno.utilization() > 0.8

    def test_sawtooth_fills_buffer(self, reno):
        """Reno's delay oscillates over the whole buffer — it is NOT
        delay-convergent (delta comparable to the buffer delay)."""
        stats = reno.stats[0]
        delta = stats.max_rtt - stats.min_rtt
        buffer_delay = RM  # 1 BDP of buffer = Rm of extra delay
        assert delta > 0.3 * buffer_delay

    def test_experiences_loss_and_recovers(self, reno):
        stats = reno.stats[0]
        assert stats.losses > 0
        assert stats.timeouts == 0  # fast retransmit should suffice

    @pytest.mark.parametrize("cls", [NewReno, DelayAimd])
    def test_halves_once_per_window(self, cls):
        cca = cls(initial_cwnd=64.0)

        class FakeSender:
            next_seq = 1000

        cca.sender = FakeSender()
        cca.ssthresh = 32.0  # out of slow start
        cca.on_loss(0.0, 10, 1500)
        after_first = cca.cwnd
        cca.on_loss(0.0, 11, 1500)  # same window
        assert cca.cwnd == after_first
        cca.on_loss(1.0, 2000, 1500)  # next window
        assert cca.cwnd == pytest.approx(after_first * 0.5)
        assert cca.ssthresh == cca.cwnd
        assert cca.cwnd_bytes == cca.cwnd * 1500

    def test_slow_start_doubles_per_rtt(self):
        result = run_dumbbell([flow("reno", RM, {"initial_cwnd": 2})],
                              units.mbps(50), duration=1.0, buffer_bdp=4.0)
        cca = result.scenario.flows[0].sender.cca
        # ~16 RTTs in 1 s: window must have grown far beyond linear.
        assert cca.cwnd > 50


class TestCubic:
    def test_high_utilization_with_bdp_buffer(self):
        result = run_single("cubic")
        assert result.utilization() > 0.8

    def test_beta_reduction_on_loss(self):
        cca = Cubic(initial_cwnd=100.0)

        class FakeSender:
            next_seq = 500

        cca.sender = FakeSender()
        cca.ssthresh = 50.0
        cca.on_loss(0.0, 5, 1500)
        assert cca.cwnd == pytest.approx(100.0 * 0.7)

    def test_cubic_growth_accelerates_past_wmax(self):
        cca = Cubic()
        cca.w_max = 100.0
        cca._epoch_start = 0.0
        cca._k = ((cca.w_max * (1 - cca.beta) / cca.cube_scale)
                  ** (1.0 / 3.0))
        near_plateau = cca._cubic_window(cca._k)
        beyond = cca._cubic_window(cca._k + 5.0)
        assert near_plateau == pytest.approx(cca.w_max)
        assert beyond > cca.w_max + 40


WINDOW_CCAS = [name for name in registry.names() if issubclass(
    resolve(registry.entry(name).path)[0], WindowCCA)]


@pytest.mark.parametrize("name", WINDOW_CCAS)
def test_timeout_resets_window_to_min_cwnd(name):
    cca = registry.create(name, {"initial_cwnd": 64.0})

    class FakeSender:
        next_seq = 10

    cca.sender = FakeSender()
    cca.on_timeout(0.0)
    assert cca.cwnd == cca.min_cwnd
    assert cca.cwnd_bytes == cca.min_cwnd * cca.mss


def test_reno_vs_reno_is_fair():
    result = run_dumbbell([flow("reno", RM), flow("reno", RM)], RATE,
                          duration=60.0, warmup=20.0, buffer_bdp=1.0)
    assert result.throughput_ratio() < 2.0


def test_delayed_acks_bias_but_do_not_starve():
    """Figure 7 shape at reduced scale: bounded unfairness."""
    result = loss_based_delayed_acks(duration=100.0, warmup=30.0)
    ratio = result.throughput_ratio()
    assert 1.2 < ratio < 8.0           # biased...
    assert result.stats[0].throughput > 0.05 * RATE  # ...but not starved
