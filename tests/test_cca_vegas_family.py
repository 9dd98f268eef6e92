"""Tests for the Vegas-family CCAs (Vegas, FAST, LEDBAT).

These verify the equilibria the paper's Figure 3 and Section 5.1 rely
on: RTT converges to Rm + n*alpha/C with near-zero oscillation, and the
min-RTT estimator is poisonable.
"""

import pytest

from repro import units
from repro.ccas.fast import FastTCP
from repro.ccas.ledbat import Ledbat
from repro.ccas.vegas import Vegas
from repro.spec import ElementSpec

from .conftest import flow, run_dumbbell

RATE = units.mbps(12)
RM = units.ms(40)


def run_single(cca, params=None, duration=12.0, buffer_bdp=None,
               **kwargs):
    return run_dumbbell([flow(cca, RM, params, **kwargs)], RATE, duration,
                        duration / 2, buffer_bdp=buffer_bdp)


@pytest.fixture(scope="module")
def vegas():
    return run_single("vegas")


class TestVegas:
    def test_full_utilization_on_ideal_path(self, vegas):
        assert vegas.utilization() > 0.95

    def test_equilibrium_rtt_matches_alpha_over_c(self, vegas):
        # alpha..beta packets queued: RTT in Rm + [2, 4+1]*mss/C plus
        # the packet's own transmission time.
        stats = vegas.stats[0]
        per_packet = 1500 / RATE
        low = RM + 2 * per_packet
        high = RM + 6 * per_packet
        assert low <= stats.mean_rtt <= high

    def test_delay_oscillation_is_tiny(self, vegas):
        stats = vegas.stats[0]
        delta = stats.max_rtt - stats.min_rtt
        assert delta < 5 * 1500 / RATE

    def test_two_flows_share_fairly(self):
        # Vegas's alpha..beta band admits stable unequal shares (any
        # split where both flows estimate alpha..beta queued packets is
        # a fixed point), and the later slow-start exiter additionally
        # inflates its base-RTT estimate. Bounded unfairness ~beta/alpha
        # is expected; starvation is not.
        result = run_dumbbell([flow("vegas", RM), flow("vegas", RM)], RATE,
                              duration=20.0, warmup=10.0)
        assert result.throughput_ratio() < 3.0
        assert min(res.throughput for res in result.stats) > 0.1 * RATE

    def test_alpha_beta_validation(self):
        with pytest.raises(ValueError):
            Vegas(alpha=5.0, beta=2.0)

    def test_base_rtt_oracle_ignores_poisoning(self):
        # With an oracle Rm, a constant-jitter path just looks congested
        # -> Vegas backs off but does not collapse below the implied rate.
        result = run_single(
            "vegas", {"base_rtt": RM},
            ack_elements=[ElementSpec("constant_jitter",
                                      {"eta": units.ms(1)})])
        assert result.stats[0].throughput > 0

    def test_min_rtt_poisoning_causes_underutilization(self, vegas):
        """Section 5.1: Vegas underestimating Rm starves even alone.

        Constant jitter alone is harmless (the min-RTT filter absorbs
        it); the damage comes from a min-RTT sample 20 ms below every
        other packet's floor, which pins the rate near
        alpha * mss / 20ms regardless of the link rate.
        """
        poisoned = run_single(
            "vegas", ack_elements=[ElementSpec(
                "exempt_first_jitter",
                {"eta": units.ms(20), "exempt_seqs": [0]})])
        assert (poisoned.stats[0].throughput
                < 0.5 * vegas.stats[0].throughput)


class TestFast:
    def test_full_utilization_on_ideal_path(self):
        result = run_single("fast")
        assert result.utilization() > 0.95

    def test_equilibrium_queue_near_alpha(self):
        result = run_single("fast", {"alpha": 4.0})
        stats = result.stats[0]
        queue_packets = (stats.mean_rtt - RM) * RATE / 1500
        assert 2.0 < queue_packets < 7.0

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            FastTCP(gamma=0.0)
        with pytest.raises(ValueError):
            FastTCP(gamma=1.5)

    def test_converges_faster_with_larger_gamma(self):
        # gamma = 1 jumps straight to the fixed point estimate.
        result = run_single("fast", {"gamma": 1.0}, duration=8.0)
        assert result.utilization() > 0.9


class TestLedbat:
    def test_converges_to_target_delay(self):
        result = run_single("ledbat", {"target": 0.04}, duration=20.0)
        stats = result.stats[0]
        queueing = stats.mean_rtt - RM
        assert queueing == pytest.approx(0.04, rel=0.35)

    def test_full_utilization(self):
        result = run_single("ledbat", {"target": 0.04}, duration=20.0)
        assert result.utilization() > 0.9

    def test_target_validation(self):
        with pytest.raises(ValueError):
            Ledbat(target=0.0)

    def test_is_delay_convergent_not_buffer_filling(self):
        # With a 100 ms target and a large buffer, LEDBAT must not fill
        # the buffer the way a loss-based CCA would.
        result = run_single("ledbat", {"target": 0.02}, duration=20.0,
                            buffer_bdp=20.0)
        assert result.stats[0].max_rtt < RM + 0.1
