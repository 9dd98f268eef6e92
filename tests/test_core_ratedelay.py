"""Tests for rate-delay maps and the Section 6.3 figure of merit."""

import math

import pytest

from repro.core.ratedelay import (ExponentialMap, VegasFamilyMap,
                                  compare_figures_of_merit)
from repro.errors import ConfigurationError

RM = 0.1  # Figure 3 uses Rm = 100 ms


class TestVegasFamilyMap:
    def test_rate_delay_inverse_roundtrip(self):
        vegas = VegasFamilyMap(alpha=4 * 1500, offset=RM)
        for rate in [1e5, 1e6, 1e7]:
            assert vegas.rate(vegas.delay(rate)) == pytest.approx(rate)

    def test_rate_diverges_at_offset(self):
        vegas = VegasFamilyMap(alpha=6000, offset=RM)
        assert math.isinf(vegas.rate(RM))
        assert math.isinf(vegas.rate(RM - 0.01))

    def test_equation_1_figure_of_merit(self):
        vegas = VegasFamilyMap(alpha=6000, offset=RM)
        d, s, r_max = 0.01, 2.0, 0.2
        merit = vegas.figure_of_merit(d, s, r_max)
        closed_form = (r_max - RM) / d * (1 - 1 / s)
        assert merit == pytest.approx(closed_form)

    def test_mu_plus_grows_with_smaller_jitter(self):
        vegas = VegasFamilyMap(alpha=6000, offset=RM)
        assert vegas.mu_plus(0.001, 2.0) > vegas.mu_plus(0.01, 2.0)


class TestExponentialMap:
    def make(self, d=0.01, s=2.0, r_max=0.2):
        return ExponentialMap(mu_minus=1e5, s=s, r_max=r_max,
                              jitter_bound=d, rm=RM)

    def test_rate_delay_inverse_roundtrip(self):
        exp_map = self.make()
        for rate in [2e5, 1e6, 5e6]:
            assert exp_map.rate(exp_map.delay(rate)) == pytest.approx(rate)

    def test_rates_s_apart_are_d_apart_in_delay(self):
        """The map's defining property (Section 6.3)."""
        exp_map = self.make(d=0.01, s=2.0)
        d1 = exp_map.delay(1e6)
        d2 = exp_map.delay(2e6)
        assert d1 - d2 == pytest.approx(0.01)

    def test_figure_of_merit_closed_form(self):
        exp_map = self.make(d=0.01, s=2.0, r_max=0.2)
        expected = 2.0 ** ((0.2 - RM - 0.01) / 0.01)
        assert exp_map.figure_of_merit() == pytest.approx(expected)

    def test_mu_at_rmax_is_mu_minus(self):
        exp_map = self.make()
        assert exp_map.rate(exp_map.r_max) == pytest.approx(1e5)


class TestComparison:
    def test_papers_worked_example(self):
        """D = 10 ms, s = 2, Rmax = 100 ms -> ~2^10 ~ 1e3 (paper 6.3)."""
        result = compare_figures_of_merit(
            jitter_bound=0.010, s=2.0, r_max=0.110, rm=0.010)
        assert result["exponential_closed_form"] == pytest.approx(
            2 ** 9, rel=0.01)
        # s = 4 raises the range to ~2^18 for the same delay budget.
        result4 = compare_figures_of_merit(
            jitter_bound=0.010, s=4.0, r_max=0.110, rm=0.010)
        assert result4["exponential_closed_form"] > \
            100 * result["exponential_closed_form"]

    def test_exponential_beats_vegas_exponentially(self):
        result = compare_figures_of_merit(
            jitter_bound=0.010, s=2.0, r_max=0.2, rm=RM)
        assert result["exponential_ratio"] > 10 * result["vegas_ratio"]

    def test_vegas_merit_is_linear_in_rmax_over_d(self):
        merits = [compare_figures_of_merit(
            jitter_bound=d, s=2.0, r_max=0.2, rm=RM)["vegas_closed_form"]
            for d in (0.02, 0.01, 0.005)]
        assert merits[1] == pytest.approx(2 * merits[0])
        assert merits[2] == pytest.approx(4 * merits[0])


def test_validation():
    vegas = VegasFamilyMap(alpha=6000, offset=RM)
    with pytest.raises(ConfigurationError):
        vegas.delay(0.0)
    with pytest.raises(ConfigurationError):
        vegas.mu_plus(0.01, s=1.0)
    with pytest.raises(ConfigurationError):
        vegas.mu_minus(r_max=RM / 2)
