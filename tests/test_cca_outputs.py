"""Published CCA outputs never go stale.

Every CCA keeps ``cwnd_bytes`` / ``pacing_rate`` as attributes,
published from one pure ``outputs()`` at the end of every state change
(``repro.ccas.base``): a ``WindowCCA`` in ``clamp_cwnd``, a ``RateCCA``
in its ``rate`` setter and ``note_rtt``, BBR and ``WindowTarget`` at the
end of each handler. A state change that skipped the publish would
silently change what the sender does, so the invariant sentinel compares
the published pair with ``outputs()``. Here every registered CCA runs
under a strict sentinel that checks after every event; a deliberately
skipped publish is the control that the check can fail.
"""

import math
import warnings

import pytest

from repro import units
from repro.ccas import registry
from repro.errors import InvariantViolation
from repro.sim.invariants import InvariantSentinel
from repro.spec import ElementSpec, LinkSpec, ScenarioSpec

from .conftest import flow


def lossy_outage(name):
    """One flow through random loss, a short buffer and a 0.4 s outage:
    ACKs, losses, timeouts and rate ticks all run."""
    data = (ElementSpec("random_loss", {"loss_prob": 0.01}),
            ElementSpec("blackout", start=1.0, end=1.4))
    return ScenarioSpec(link=LinkSpec(rate=units.mbps(6), buffer_bdp=1.0),
                        flows=(flow(name, units.ms(40),
                                    data_elements=data),),
                        seed=3)


@pytest.mark.parametrize("name", registry.names())
def test_outputs_are_fresh_after_every_event(name):
    scenario = lossy_outage(name).build(invariants="strict")
    sentinel = scenario.sentinel
    sentinel.cadence = 1
    scenario.run(4.0)
    sender = scenario.flows[0].sender
    assert sentinel.violations == []
    assert sentinel.checks_run > scenario.sim.events_processed > 900
    assert sender.timeouts >= 1
    cca = sender.cca
    assert (cca.cwnd_bytes, cca.pacing_rate) == cca.outputs()


@pytest.mark.parametrize("name, corrupt", [
    ("bbr", lambda cca: setattr(cca, "btl_bw", cca.btl_bw * 2)),
    ("vivace", lambda cca: setattr(cca, "_latest_rtt",
                                   cca._latest_rtt * 2)),
    ("jitter-aware", lambda cca: setattr(cca, "_rate", cca.rate * 2)),
    ("reno", lambda cca: setattr(cca, "cwnd", cca.cwnd + 1.0)),
    ("window-target", lambda cca: setattr(cca, "window", cca.window * 2)),
])
def test_a_skipped_publish_is_caught(name, corrupt):
    scenario = lossy_outage(name).build(invariants="strict")
    scenario.run(0.8)
    corrupt(scenario.flows[0].sender.cca)   # state moved, nothing published
    with pytest.raises(InvariantViolation) as excinfo:
        scenario.sentinel.check(scenario.sim)
    assert excinfo.value.details["site"] == "sender[0].stale_outputs"


class _NaNWindow:
    cwnd_bytes = math.nan
    pacing_rate = None

    def outputs(self):
        return math.nan, None


class _Sender:
    sent_packets = 0
    highest_acked = -1
    next_seq = 0
    cca = _NaNWindow()

    def invariant_errors(self):
        return []


class _Clock:
    now = 1.0


def test_stale_check_is_nan_safe():
    # A NaN window is a sanity violation, but it is not a stale one:
    # published NaN equals recomputed NaN.
    sentinel = InvariantSentinel(mode="warn")
    sentinel.register_flow(_Sender())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sentinel.check(_Clock())
    assert [v["site"] for v in sentinel.violations] == ["sender[0].cwnd"]
