"""Tests for the runtime invariant sentinel (repro.sim.invariants).

Two angles: mode plumbing (env var, override, explicit) and the check
battery itself, driven by small fake components that violate exactly
one invariant at a time. The integration angle — a full scenario run
staying invariant-clean in strict mode — is covered here with short
runs and in tests/test_golden_traces.py for the whole golden battery.
"""

import copy
import math
import warnings

import pytest

from repro import units
from repro.errors import InvariantViolation
from repro.sim.invariants import (DEFAULT_CADENCE, ENV_VAR,
                                  InvariantSentinel, InvariantWarning,
                                  override_mode, resolve_mode)
from repro.sim.digests import run_digests
from repro.sim.runner import RunResult, summarize
from repro.spec import ElementSpec, LinkSpec, ScenarioSpec

from .conftest import flow


class FakeSim:
    def __init__(self, now=1.0):
        self.now = now
        self.sentinel = None


class FakeCCA:
    def __init__(self, cwnd=30000.0, pacing=None):
        self.cwnd_bytes = cwnd
        self.pacing_rate = pacing

    def outputs(self):
        return self.cwnd_bytes, self.pacing_rate


class FakeSender:
    def __init__(self, sent=10, cwnd=30000.0, pacing=None,
                 acked=5, next_seq=10, errors=()):
        self.sent_packets = sent
        self.cca = FakeCCA(cwnd, pacing)
        self.highest_acked = acked
        self.next_seq = next_seq
        self._errors = list(errors)

    def invariant_errors(self):
        return list(self._errors)


class FakeReceiver:
    def __init__(self, received=8):
        self.received_packets = received

    def invariant_errors(self):
        return []


class FakeQueue:
    def __init__(self, drops=0, errors=()):
        self.drops = drops
        self._errors = list(errors)

    def invariant_errors(self):
        return list(self._errors)


def make_sentinel(mode="strict", sender=None, receiver=None,
                  queue=None):
    sentinel = InvariantSentinel(mode=mode)
    sentinel.register_flow(sender or FakeSender(),
                           receiver or FakeReceiver())
    if queue is not None:
        sentinel.register_queue(queue)
    return sentinel


class TestModeResolution:
    def test_default_is_warn(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_mode() == "warn"

    def test_env_var_wins_over_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "strict")
        assert resolve_mode() == "strict"

    def test_override_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "off")
        with override_mode("strict"):
            assert resolve_mode() == "strict"
        assert resolve_mode() == "off"

    def test_explicit_wins_over_override(self):
        with override_mode("strict"):
            assert resolve_mode("off") == "off"

    def test_invalid_modes_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_mode("yolo")
        with pytest.raises(ValueError):
            InvariantSentinel(mode="loud")
        monkeypatch.setenv(ENV_VAR, "bogus")
        with pytest.raises(ValueError):
            resolve_mode()

    def test_override_nests_and_restores(self):
        with override_mode("off"):
            with override_mode("strict"):
                assert resolve_mode() == "strict"
            assert resolve_mode() == "off"

    def test_cadence_validated(self):
        with pytest.raises(ValueError):
            InvariantSentinel(mode="warn", cadence=0)


class TestOffMode:
    def test_registrations_are_noops(self):
        sentinel = InvariantSentinel(mode="off")
        sentinel.register_flow(FakeSender(), FakeReceiver())
        sentinel.register_queue(FakeQueue())
        assert not sentinel.active
        assert sentinel._senders == []

    def test_attach_does_not_install(self):
        sim = FakeSim()
        InvariantSentinel(mode="off").attach(sim)
        assert sim.sentinel is None


class TestCheckBattery:
    def test_clean_components_pass(self):
        sentinel = make_sentinel("strict", queue=FakeQueue())
        sentinel.check(FakeSim())
        assert sentinel.violations == []
        assert sentinel.checks_run == 1

    def test_clock_regression_is_causality(self):
        sentinel = make_sentinel("strict")
        sentinel.check(FakeSim(now=2.0))
        with pytest.raises(InvariantViolation) as excinfo:
            sentinel.check(FakeSim(now=1.0))
        assert excinfo.value.kind == "causality"
        assert "clock" in str(excinfo.value)

    def test_ack_regression_is_causality(self):
        sender = FakeSender(acked=7)
        sentinel = make_sentinel("strict", sender=sender)
        sentinel.check(FakeSim())
        sender.highest_acked = 3
        with pytest.raises(InvariantViolation) as excinfo:
            sentinel.check(FakeSim(now=2.0))
        assert excinfo.value.kind == "causality"

    def test_ack_of_unsent_seq_is_causality(self):
        sender = FakeSender(acked=10, next_seq=10)
        sentinel = make_sentinel("strict", sender=sender)
        with pytest.raises(InvariantViolation) as excinfo:
            sentinel.check(FakeSim())
        assert excinfo.value.kind == "causality"

    def test_nan_cwnd_is_sanity(self):
        sender = FakeSender(cwnd=float("nan"))
        sentinel = make_sentinel("strict", sender=sender)
        with pytest.raises(InvariantViolation) as excinfo:
            sentinel.check(FakeSim())
        assert excinfo.value.kind == "sanity"

    def test_inf_cwnd_allowed(self):
        # Purely rate-based CCAs encode "no window" as inf (see
        # repro.ccas.base) — the sentinel must not flag them.
        sender = FakeSender(cwnd=math.inf, pacing=units.mbps(10))
        sentinel = make_sentinel("strict", sender=sender)
        sentinel.check(FakeSim())
        assert sentinel.violations == []

    def test_negative_pacing_is_sanity(self):
        sender = FakeSender(pacing=-1.0)
        sentinel = make_sentinel("strict", sender=sender)
        with pytest.raises(InvariantViolation):
            sentinel.check(FakeSim())

    def test_packet_balance_is_conservation(self):
        # More packets received+dropped than sent+duplicated.
        sender = FakeSender(sent=5)
        receiver = FakeReceiver(received=9)
        sentinel = make_sentinel("strict", sender=sender,
                                 receiver=receiver)
        with pytest.raises(InvariantViolation) as excinfo:
            sentinel.check(FakeSim())
        assert excinfo.value.kind == "conservation"
        assert "packet" in str(excinfo.value)

    def test_component_errors_forwarded(self):
        queue = FakeQueue(errors=[("sanity", "backlog",
                                   "queued_bytes went negative")])
        sentinel = make_sentinel("strict", queue=queue)
        with pytest.raises(InvariantViolation) as excinfo:
            sentinel.check(FakeSim())
        assert "queued_bytes" in str(excinfo.value)

    def test_strict_details_carry_site_and_time(self):
        sender = FakeSender(cwnd=-1.0)
        sentinel = make_sentinel("strict", sender=sender)
        with pytest.raises(InvariantViolation) as excinfo:
            sentinel.check(FakeSim(now=3.5))
        exc = excinfo.value
        assert exc.sim_time == 3.5
        assert exc.details["site"] == "sender[0].cwnd"
        assert "trace_tail" in exc.details


class TestWarnMode:
    def test_warns_once_per_site_and_records(self):
        sender = FakeSender(cwnd=-1.0)
        sentinel = make_sentinel("warn", sender=sender)
        with pytest.warns(InvariantWarning, match="cwnd"):
            sentinel.check(FakeSim())
        # The same site stays quiet on later checks but keeps recording.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sentinel.check(FakeSim(now=2.0))
        assert len(sentinel.violations) == 2
        assert sentinel.violations[0]["kind"] == "sanity"

    def test_run_continues_after_violation(self):
        sender = FakeSender(cwnd=-1.0, pacing=-2.0)
        sentinel = make_sentinel("warn", sender=sender)
        with pytest.warns(InvariantWarning):
            sentinel.check(FakeSim())
        # Both problems were seen in one pass (strict stops at first).
        sites = {v["site"] for v in sentinel.violations}
        assert sites == {"sender[0].cwnd", "sender[0].pacing"}


def one_flow(cca, rate_mbps, rm_ms, **link):
    return ScenarioSpec(link=LinkSpec(rate=units.mbps(rate_mbps), **link),
                        flows=(flow(cca, units.ms(rm_ms)),))


class TestScenarioIntegration:
    def run_flow(self, invariants):
        return one_flow("vegas", 5, 40).run(duration=3.0, warmup=0.5,
                                            invariants=invariants)

    def test_clean_run_passes_strict(self):
        result = self.run_flow("strict")
        sentinel = result.scenario.sentinel
        assert sentinel.mode == "strict"
        assert sentinel.violations == []
        assert sentinel.checks_run >= 1
        assert result.stats[0].throughput > 0

    def test_off_mode_detaches(self):
        result = self.run_flow("off")
        assert result.scenario.sim.sentinel is None

    def test_sentinel_is_bit_invisible(self):
        # Attaching the sentinel must not perturb the event stream.
        stats_off = self.run_flow("off").stats[0]
        stats_strict = self.run_flow("strict").stats[0]
        assert stats_strict.throughput == stats_off.throughput
        assert stats_strict.mean_rtt == stats_off.mean_rtt

    def test_cadence_scales_check_count(self):
        # Enough events (> DEFAULT_CADENCE) to trigger mid-run checks
        # on top of the final end-of-run one.
        result = one_flow("vegas", 20, 40).run(duration=10.0, warmup=1.0,
                                               invariants="strict")
        sentinel = result.scenario.sentinel
        assert sentinel.cadence == DEFAULT_CADENCE
        assert sentinel.checks_run >= 2
        assert sentinel.violations == []


class TestCopiedScenario:
    """A built scenario deep-copied mid-run goes on under its own
    sentinel: the copy and the original both finish like a run that was
    never copied."""

    SPEC = ScenarioSpec(
        link=LinkSpec(rate=units.mbps(12)),
        flows=(flow("vegas", units.ms(40)),
               flow("vegas", units.ms(40), ack_elements=(
                   ElementSpec("constant_jitter", {"eta": units.ms(5)}),))))

    @staticmethod
    def digests(scenario, duration=8.0, warmup=2.0):
        return run_digests(RunResult(
            scenario=scenario, stats=summarize(scenario, duration, warmup),
            duration=duration, warmup=warmup))

    def test_copy_and_original_match_an_uninterrupted_run(self):
        whole = self.SPEC.build(invariants="strict")
        whole.run(8.0)
        original = self.SPEC.build(invariants="strict")
        original.run(4.0)
        checks_at_copy = original.sentinel.checks_run
        branch = copy.deepcopy(original)
        branch.run(8.0)
        original.run(8.0)
        assert self.digests(branch) == self.digests(whole)
        assert self.digests(original) == self.digests(whole)
        assert branch.sentinel is not original.sentinel
        assert branch.sentinel.checks_run > checks_at_copy
        assert branch.sentinel.violations == []


class TestStrictCatchesInjectedCorruption:
    def test_corrupted_live_state_raises_mid_run(self):
        # Sabotage a live scenario between engine slices: the next
        # check (the end-of-run one at minimum) must catch the
        # poisoned inflight accounting.
        scenario = one_flow("vegas", 5, 40).build(invariants="strict")
        scenario.flows[0].sender.start()
        scenario.sim.run(1.0)
        scenario.flows[0].sender.inflight_bytes += 7777
        with pytest.raises(InvariantViolation) as excinfo:
            scenario.sim.run(5.0)
        assert excinfo.value.kind == "conservation"
        assert "inflight" in str(excinfo.value)

    def test_stalled_receiver_cursor_raises_mid_run(self):
        # Step the receiver's cursor back onto a seq it also keeps as an
        # early arrival: every count still adds up, but the cursor can
        # never pass that seq again, so each later arrival piles into
        # _ahead. Only the cursor invariant can see it.
        scenario = one_flow("vegas", 5, 40).build(invariants="strict")
        scenario.flows[0].sender.start()
        scenario.sim.run(1.0)
        receiver = scenario.flows[0].receiver
        receiver._expected -= 1
        receiver._ahead.add(receiver._expected)
        assert receiver.received_packets >= (receiver._expected
                                             + len(receiver._ahead))
        with pytest.raises(InvariantViolation) as excinfo:
            scenario.sim.run(2.0)
        assert excinfo.value.kind == "conservation"
        assert excinfo.value.details["site"] == \
            "receiver[0].ahead_above_cursor"

    def test_lost_parking_entry_raises_mid_run(self):
        # A retransmission in flight sits below the sender's loss
        # cursor, known to loss detection only through its _parked
        # entry. Drop the entries and the packet could never be declared
        # lost again; the sentinel must say so.
        scenario = one_flow("reno", 12, 50, buffer_bdp=4.0).build(
            invariants="strict")
        sender = scenario.flows[0].sender
        sender.start()
        horizon = 0.0
        while not any(seq < sender._judged for seq in sender._unacked):
            horizon += 0.05
            assert horizon < 5.0, "slow start never overshot the buffer"
            scenario.sim.run(horizon)
        sender._parked.clear()
        with pytest.raises(InvariantViolation) as excinfo:
            scenario.sim.run(horizon + 1e-4)    # the end-of-run check
        assert excinfo.value.kind == "conservation"
        assert "parked" in str(excinfo.value)
