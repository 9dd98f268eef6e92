"""Tests for Algorithm 1 (Section 6.3): the jitter-aware CCA."""

import pytest

from repro import units
from repro.ccas.jitteraware import JitterAware
from repro.spec import ElementSpec

from .conftest import flow, run_dumbbell

RM = units.ms(40)
D = units.ms(10)
PARAMS = dict(jitter_bound=D, s=2.0, rmax=units.ms(100),
              mu_minus=units.kbps(100))
#: Min-RTT poisoning: every ACK but the first carries +D...
POISON = ElementSpec("exempt_first_jitter", {"eta": D, "exempt_seqs": [0]})
#: ...against a flow that sees +D on every ACK.
CONSTANT = ElementSpec("constant_jitter", {"eta": D})


def make(**kwargs):
    return JitterAware(**{**PARAMS, **kwargs})


def algorithm1(rm, **kwargs):
    """An Algorithm 1 flow; ``rm`` is its Rm oracle (None = estimate)."""
    return flow("jitter-aware", RM, {**PARAMS, "rm": rm}, **kwargs)


def test_parameter_validation():
    with pytest.raises(ValueError):
        JitterAware(jitter_bound=0.0)
    with pytest.raises(ValueError):
        JitterAware(jitter_bound=D, s=1.0)
    with pytest.raises(ValueError):
        JitterAware(jitter_bound=D, md_factor=1.5)


def test_target_rate_is_equation_2():
    cca = make(rm=RM)
    # At queueing delay rmax the target is mu_minus.
    assert cca.target_rate(RM + units.ms(100)) == pytest.approx(
        units.kbps(100))
    # Each D less of queueing multiplies the target by s.
    assert cca.target_rate(RM + units.ms(90)) == pytest.approx(
        units.kbps(200))
    assert cca.target_rate(RM + units.ms(50)) == pytest.approx(
        units.kbps(100) * 2 ** 5)


def test_rates_factor_s_apart_map_to_delays_d_apart():
    """The property the design is built on (Section 6.3)."""
    cca = make(rm=RM)
    d1 = RM + units.ms(30)
    d2 = d1 + D
    assert cca.target_rate(d1) == pytest.approx(
        2.0 * cca.target_rate(d2))


@pytest.fixture(scope="module")
def single_flow():
    # mu+ = mu- * s^((rmax - D)/D) = 100k * 2^9 = ~51 Mbit/s in bytes...
    # use a 6 Mbit/s link, well within range.
    return run_dumbbell([algorithm1(RM)], units.mbps(6), duration=60.0,
                        warmup=30.0, buffer_bdp=20.0)


def test_single_flow_utilizes_a_link_in_range(single_flow):
    assert single_flow.utilization() > 0.7


def test_keeps_delay_between_rm_plus_d_and_rmax(single_flow):
    stats = single_flow.stats[0]
    # Equilibrium queueing delay must exceed D (Theorem 2's price of
    # efficiency) and stay below rmax.
    assert stats.mean_rtt > RM + 0.5 * D
    assert stats.mean_rtt < RM + units.ms(120)


def test_two_flows_with_asymmetric_jitter_stay_s_fair():
    """The headline Section 6.3 claim: jitter <= D cannot force the
    flows' inferred rates more than a factor s apart; empirically the
    throughput ratio stays well bounded (no starvation)."""
    square = ElementSpec("square_wave_jitter", {"high": D, "period": 0.7})
    result = run_dumbbell(
        [algorithm1(RM, label="jittered", ack_elements=[square]),
         algorithm1(RM, label="clean")],
        units.mbps(6), duration=90.0, warmup=40.0, buffer_bdp=20.0)
    assert result.throughput_ratio() < 4.0   # bounded; Vegas would starve
    assert result.utilization() > 0.6


def test_vegas_starves_under_same_jitter_budget_for_contrast():
    """With the same jitter budget D, min-RTT poisoning pins Vegas at
    ~alpha*mss/D of throughput (rate-independent), while Algorithm 1's
    exponential map bounds the damage to one s-band. Constant jitter
    alone would NOT hurt Vegas — its min-RTT filter self-calibrates —
    so the adversary uses the one-fast-packet trick of Section 5.1."""
    result = run_dumbbell(
        [flow("vegas", RM, label="poisoned", ack_elements=[POISON]),
         flow("vegas", RM, label="clean", ack_elements=[CONSTANT])],
        units.mbps(48), duration=60.0, warmup=25.0, buffer_bdp=20.0)
    assert result.throughput_ratio() > 5.0


def test_jitteraware_bounded_under_min_rtt_poisoning():
    """Algorithm 1 under the exact adversary that starves Vegas above."""
    result = run_dumbbell(
        [algorithm1(None, label="poisoned", ack_elements=[POISON]),
         algorithm1(None, label="clean", ack_elements=[CONSTANT])],
        units.mbps(6), duration=90.0, warmup=40.0, buffer_bdp=20.0)
    # A D-sized min-RTT error shifts the map by at most one s-band.
    assert result.throughput_ratio() < 4.0


def test_min_rtt_estimation_shifts_map_by_less_than_one_band():
    cca = make(rm=None)          # estimator mode
    cca._min_rtt = RM + units.ms(5)   # poisoned by 5 ms < D
    biased = cca.target_rate(RM + units.ms(50))
    cca._min_rtt = RM
    clean = cca.target_rate(RM + units.ms(50))
    assert biased / clean <= 2.0 ** (5 / 10) + 1e-9
