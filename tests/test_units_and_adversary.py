"""Tests for units, errors, recorder plumbing, and adversary schedules."""


import numpy as np
import pytest

from repro import units
from repro.core.emulation import step_trace
from repro.errors import ConfigurationError, ReproError, SimulationError
from repro.model.fluid import eta_schedule
from repro.spec import CCASpec, ElementSpec, FlowSpec, LinkSpec, ScenarioSpec

from .conftest import flow, run_dumbbell


class TestUnits:
    def test_mbps_roundtrip(self):
        assert units.to_mbps(units.mbps(12.5)) == pytest.approx(12.5)

    def test_mbps_is_bytes_per_second(self):
        assert units.mbps(12) == pytest.approx(1.5e6)

    def test_kbps_consistency(self):
        assert units.mbps(1) == pytest.approx(1000 * units.kbps(1))

    def test_ms(self):
        assert units.ms(40) == pytest.approx(0.04)


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ConfigurationError, ReproError)
        assert issubclass(SimulationError, ReproError)

    def test_emulation_error_payload(self):
        from repro.errors import EmulationInfeasibleError
        err = EmulationInfeasibleError("nope", time=1.5,
                                       required_delay=-0.1)
        assert err.time == 1.5
        assert err.required_delay == -0.1


class TestAdversary:
    """Adversary schedules eta(t) are element specs; the fluid model
    plays them with the packet element's own code."""

    def test_constant(self):
        eta = eta_schedule(ElementSpec("constant_jitter", {"eta": 0.01}))
        assert eta(0.0) == 0.01
        assert eta(100.0) == 0.01

    def test_zero(self):
        assert eta_schedule(ElementSpec("no_jitter"))(5.0) == 0.0

    def test_negative_constant_rejected(self):
        with pytest.raises(ConfigurationError):
            eta_schedule(ElementSpec("constant_jitter", {"eta": -0.01}))

    def test_step_at(self):
        eta = eta_schedule(step_trace(np.array([2.0]), np.array([0.03])))
        assert eta(1.9) == 0.0
        assert eta(2.1) == 0.03

    def test_from_table_step_interpolation(self):
        times = np.array([0.0, 0.1, 0.2])
        values = np.array([0.0, 0.01, 0.02])
        eta = eta_schedule(step_trace(times, values))
        assert eta(0.05) == pytest.approx(0.0)
        assert eta(0.15) == pytest.approx(0.01)
        assert eta(5.00) == pytest.approx(0.02)

    def test_from_table_validation(self):
        with pytest.raises(ConfigurationError):
            eta_schedule(ElementSpec("step_trace_jitter",
                                     {"steps": [[1.0, 0.1], [0.5, 0.2]]}))


class TestRecorderPlumbing:
    @pytest.fixture(scope="class")
    def result(self):
        return run_dumbbell([flow("vegas", units.ms(40))], units.mbps(12),
                            duration=6.0)

    def test_throughput_between_windows(self, result):
        recorder = result.scenario.flows[0].recorder
        early = recorder.throughput_between(0.0, 1.0)
        late = recorder.throughput_between(3.0, 6.0)
        assert late >= early          # converged > slow start window
        assert late == pytest.approx(units.mbps(12), rel=0.05)

    def test_queue_recorder_tracks_backlog(self, result):
        qrec = result.scenario.queue_recorder
        assert max(qrec.backlog_values) > 0
        assert all(v >= 0 for v in qrec.backlog_values)


class TestScenarioValidation:
    def test_empty_flow_list_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(link=LinkSpec(rate=units.mbps(12)), flows=())

    def test_both_buffer_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkSpec(rate=units.mbps(12), buffer_bytes=1000, buffer_bdp=1.0)

    def test_buffer_bdp_resolution(self):
        spec = ScenarioSpec(link=LinkSpec(rate=units.mbps(12),
                                          buffer_bdp=2.0),
                            flows=(flow("vegas", 0.05), flow("vegas", 0.2)))
        assert spec.build().queue.buffer_bytes == pytest.approx(
            2.0 * units.mbps(12) * 0.05)

    def test_nonpositive_rm_rejected(self):
        with pytest.raises(ConfigurationError):
            FlowSpec(cca=CCASpec("vegas"), rm=0.0)

    def test_flow_start_times_honored(self):
        result = run_dumbbell(
            [flow("vegas", units.ms(40)),
             flow("vegas", units.ms(40), start_time=2.0)],
            units.mbps(12), duration=4.0)
        late_sender = result.scenario.flows[1].sender
        first_rtt_time = result.scenario.flows[1].recorder.rtt_times[0]
        assert first_rtt_time > 2.0
        assert result.scenario.flows[0].recorder.rtt_times[0] < 1.0
