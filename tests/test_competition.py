"""Mixed-CCA competition matrix on clean shared links.

Cross-CCA coexistence isn't the paper's subject, but several of its
arguments lean on known coexistence facts (delay-based yields to
buffer-filling; BBR's standing queue displaces Vegas-family flows).
These integration tests pin those facts in our simulator so regressions
in any CCA's aggressiveness are caught.
"""

import pytest

from repro import units

from .conftest import flow, run_dumbbell

RATE = units.mbps(24)
RM = units.ms(40)
#: BBR's probe phase is pinned in every pairing below.
PARAMS = {"bbr": {"seed": 1}}


def compete(a, b, duration=40.0):
    return run_dumbbell(
        [flow(a, RM, PARAMS.get(a), label="a"),
         flow(b, RM, PARAMS.get(b), label="b")],
        RATE, duration, duration * 0.4, buffer_bdp=2.0)


def shares(result):
    total = sum(s.throughput for s in result.stats)
    return [s.throughput / total for s in result.stats]


class TestDelayVsLossBased:
    def test_vegas_yields_to_cubic(self):
        result = compete("vegas", "cubic")
        a, b = shares(result)
        assert b > 3 * a

    def test_copa_default_mode_yields_to_reno(self):
        # Copa's default (non-competitive) mode backs off on delay; the
        # real Copa has a TCP-competitive mode switch we don't model.
        result = compete("copa", "reno")
        a, b = shares(result)
        assert b > 1.5 * a


class TestBbrCoexistence:
    def test_bbr_holds_share_against_cubic(self):
        result = compete("bbr", "cubic")
        a, b = shares(result)
        assert a > 0.15          # BBR is not starved by the buffer-filler

    def test_bbr_displaces_vegas(self):
        """BBR's cwnd-limited standing queue reads as congestion to
        Vegas, which retreats — the 2*Rm vs Rm+alpha/C asymmetry from
        the paper's Section 5.2 analysis."""
        result = compete("bbr", "vegas")
        a, b = shares(result)
        assert a > 2 * b


class TestHomogeneousBaselines:
    @pytest.mark.parametrize("cca", ["vegas", "cubic", "reno"],
                             ids=["Vegas", "Cubic", "NewReno"])
    def test_same_cca_pairs_do_not_starve(self, cca):
        result = compete(cca, cca, duration=60.0)
        assert result.throughput_ratio() < 4.0
        assert result.utilization() > 0.7

    def test_aggregate_utilization_high_in_all_pairings(self):
        pairs = [("vegas", "cubic"), ("bbr", "cubic"), ("bbr", "vegas")]
        for a, b in pairs:
            result = compete(a, b)
            assert result.utilization() > 0.8
