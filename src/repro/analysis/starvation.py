"""The Section 5 starvation-scenario library.

Each experiment is a builder that returns one of the paper's empirical
setups as a self-contained :class:`~repro.spec.ScenarioSpec` (duration
and warmup embedded), wrapped in an :class:`Experiment` so that calling
it runs the spec and returns the :class:`~repro.sim.runner.RunResult`,
while ``.spec(**kwargs)`` hands back the spec itself — to dump, cache,
ship to a worker or feed to ``repro run --spec``. Parameters default to
the paper's; benchmarks, tests and examples pass a smaller ``rate_mbps``
and ``duration`` for a cheaper run of the same shape (propagation
delays stay). Seeded components (BBR, Allegro, random loss) pin their
seeds in the spec's params, so the root seed changes nothing.

:data:`SCENARIOS` names the full-scale runs ``repro starve`` offers.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Optional, Sequence

from .. import units
from ..spec import CCASpec, ElementSpec, FlowSpec, LinkSpec, ScenarioSpec


class Experiment:
    """A spec builder as the experiment function of the same name and
    parameters: ``spec(...)`` returns the :class:`ScenarioSpec`, and
    calling the experiment runs it and returns the
    :class:`~repro.sim.runner.RunResult`."""

    def __init__(self, build: Callable[..., ScenarioSpec],
                 **fixed: Any) -> None:
        self._build, self._fixed = build, fixed
        functools.update_wrapper(self, build)

    def spec(self, *args: Any, **kwargs: Any) -> ScenarioSpec:
        return self._build(*args, **{**self._fixed, **kwargs})

    def __call__(self, *args: Any, **kwargs: Any):
        return self.spec(*args, **kwargs).run()

    def fixed(self, **fixed: Any) -> "Experiment":
        """This experiment with new defaults for some parameters."""
        return Experiment(self._build, **{**self._fixed, **fixed})


def _scenario(link: LinkSpec, flows: Sequence[FlowSpec], duration: float,
              warmup: Optional[float],
              settle: float = 3.0) -> ScenarioSpec:
    """The spec every experiment returns; ``warmup`` defaults to the
    first ``1/settle`` of the run."""
    return ScenarioSpec(
        link=link, flows=tuple(flows), duration=duration,
        warmup=duration / settle if warmup is None else warmup)


def _poisoned_copa(rm: float, poison: float) -> FlowSpec:
    """A Copa flow whose very first packet skips ``poison`` seconds of
    otherwise constant non-congestive delay (it also sees an empty
    queue, so its RTT is exactly ``rm``)."""
    return FlowSpec(
        cca=CCASpec("copa"), rm=rm, label="poisoned",
        ack_elements=(ElementSpec(
            "exempt_first_jitter",
            {"eta": poison, "exempt_seqs": [0]}),))


@Experiment
def copa_single_flow_poisoned(rate_mbps: float = 120.0,
                              rm_ms: float = 60.0,
                              poison_ms: float = 1.0,
                              duration: float = 30.0,
                              warmup: Optional[float] = None
                              ) -> ScenarioSpec:
    """Section 5.1, single flow: one packet with an RTT 1 ms below Rm.

    Implemented as a base path of Rm - 1 ms plus a constant 1 ms of
    non-congestive delay that the flow's very first packet skips.
    Paper: throughput drops from 120 to ~8 Mbit/s.
    """
    return _scenario(
        LinkSpec(rate=units.mbps(rate_mbps)),
        [_poisoned_copa(units.ms(rm_ms - poison_ms), units.ms(poison_ms))],
        duration, warmup)


@Experiment
def copa_two_flow_poisoned(rate_mbps: float = 120.0, rm_ms: float = 60.0,
                           poison_ms: float = 1.0, duration: float = 30.0,
                           warmup: Optional[float] = None) -> ScenarioSpec:
    """Section 5.1, two flows: only one gets the fast first packet.

    Paper: 8.8 vs 95 Mbit/s.
    """
    rm = units.ms(rm_ms - poison_ms)
    poison = units.ms(poison_ms)
    return _scenario(
        LinkSpec(rate=units.mbps(rate_mbps)),
        [_poisoned_copa(rm, poison),
         FlowSpec(cca=CCASpec("copa"), rm=rm, label="normal",
                  ack_elements=(ElementSpec("constant_jitter",
                                            {"eta": poison}),))],
        duration, warmup)


@Experiment
def bbr_rtt_starvation(rate_mbps: float = 120.0, rm1_ms: float = 40.0,
                       rm2_ms: float = 80.0, jitter_ms: float = 4.0,
                       duration: float = 60.0,
                       warmup: Optional[float] = None,
                       buffer_bdp: float = 8.0) -> ScenarioSpec:
    """Section 5.2: two BBR flows with Rm 40/80 ms on 120 Mbit/s.

    A small ACK-aggregation jitter (the paper's "natural OS jitter")
    inflates the max-bandwidth filters and pushes both flows into the
    cwnd-limited mode, where the flow with the smaller Rm starves.
    Paper: 8.3 vs 107 Mbit/s after 60 s.
    """
    jitter = ElementSpec("ack_aggregation", {"period": units.ms(jitter_ms)})
    return _scenario(
        LinkSpec(rate=units.mbps(rate_mbps), buffer_bdp=buffer_bdp),
        [FlowSpec(cca=CCASpec("bbr", {"seed": seed}), rm=units.ms(rm_ms),
                  label=f"rm{rm_ms:.0f}", ack_elements=(jitter,))
         for seed, rm_ms in ((1, rm1_ms), (2, rm2_ms))],
        duration, warmup)


@Experiment
def vivace_ack_aggregation(rate_mbps: float = 120.0, rm_ms: float = 60.0,
                           aggregation_ms: float = 60.0,
                           duration: float = 60.0,
                           warmup: Optional[float] = None,
                           buffer_bdp: float = 8.0) -> ScenarioSpec:
    """Section 5.3: one Vivace flow's ACKs arrive only at 60 ms ticks.

    Paper: 9.9 vs 99.4 Mbit/s.
    """
    rm = units.ms(rm_ms)
    return _scenario(
        LinkSpec(rate=units.mbps(rate_mbps), buffer_bdp=buffer_bdp),
        [FlowSpec(cca=CCASpec("vivace"), rm=rm, label="aggregated",
                  ack_elements=(ElementSpec(
                      "ack_aggregation",
                      {"period": units.ms(aggregation_ms)}),)),
         FlowSpec(cca=CCASpec("vivace"), rm=rm, label="normal")],
        duration, warmup)


def _lossy_allegro(cca_seed: int, rm: float, loss: float, loss_seed: int,
                   label: str) -> FlowSpec:
    """An Allegro flow behind ``loss`` random loss (none when 0)."""
    elements = ()
    if loss > 0:
        elements = (ElementSpec("random_loss", {"loss_prob": loss,
                                                "seed": loss_seed}),)
    return FlowSpec(cca=CCASpec("allegro", {"seed": cca_seed}), rm=rm,
                    label=label, data_elements=elements)


@Experiment
def allegro_asymmetric_loss(rate_mbps: float = 120.0, rm_ms: float = 40.0,
                            loss1: float = 0.02, loss2: float = 0.0,
                            duration: float = 60.0,
                            warmup: Optional[float] = None,
                            seed: int = 11) -> ScenarioSpec:
    """Section 5.4: PCC Allegro where only one flow sees random loss.

    Paper: 2%/0% gives 10.3 vs 99.1 Mbit/s; 2%/2% shares fairly.
    """
    rm = units.ms(rm_ms)
    return _scenario(
        LinkSpec(rate=units.mbps(rate_mbps), buffer_bdp=1.0),
        [_lossy_allegro(1, rm, loss1, seed, f"loss{loss1:.0%}"),
         _lossy_allegro(2, rm, loss2, seed + 1, f"loss{loss2:.0%}")],
        duration, warmup)


@Experiment
def allegro_single_flow_loss(rate_mbps: float = 120.0, rm_ms: float = 40.0,
                             loss: float = 0.02, duration: float = 40.0,
                             warmup: Optional[float] = None,
                             seed: int = 11) -> ScenarioSpec:
    """Section 5.4 control: one Allegro flow with 2% loss fully utilizes."""
    return _scenario(
        LinkSpec(rate=units.mbps(rate_mbps), buffer_bdp=1.0),
        [_lossy_allegro(1, units.ms(rm_ms), loss, seed, "lossy")],
        duration, warmup)


@Experiment
def loss_based_delayed_acks(cca: str = "reno", rate_mbps: float = 6.0,
                            rm_ms: float = 120.0, buffer_packets: int = 60,
                            delack: int = 4, duration: float = 200.0,
                            warmup: Optional[float] = None) -> ScenarioSpec:
    """Figure 7: Reno/Cubic where one receiver delays ACKs of 4 packets.

    Paper: bounded unfairness of 2.7x (Reno) and 3.2x (Cubic) — not
    starvation, because AIMD's large oscillations leak information.
    """
    if cca not in ("reno", "cubic"):
        raise ValueError(f"cca must be 'reno' or 'cubic', got {cca!r}")
    rm = units.ms(rm_ms)
    return _scenario(
        LinkSpec(rate=units.mbps(rate_mbps),
                 buffer_bytes=buffer_packets * 1500),
        [FlowSpec(cca=CCASpec(cca), rm=rm, label="delacks",
                  ack_every=delack, ack_timeout=units.ms(200)),
         FlowSpec(cca=CCASpec(cca), rm=rm, label="perpkt")],
        duration, warmup, settle=5.0)


#: ``repro starve NAME``: the paper-scale Section 5 runs by name.
SCENARIOS: Dict[str, Experiment] = {
    "copa": copa_two_flow_poisoned.fixed(duration=30.0),
    "bbr": bbr_rtt_starvation.fixed(duration=60.0),
    "vivace": vivace_ack_aggregation.fixed(duration=60.0),
    "allegro": allegro_asymmetric_loss.fixed(duration=90.0),
    "fig7-reno": loss_based_delayed_acks.fixed(cca="reno", duration=200.0),
    "fig7-cubic": loss_based_delayed_acks.fixed(cca="cubic",
                                                duration=200.0),
}
