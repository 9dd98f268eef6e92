"""Delta-debugging shrinker: minimize a failing spec, keep the bug.

A raw fuzz finding is a 10-flow scenario with three gated impairments
and jitter on half the ACK paths — useless as a regression test and worse
as a debugging starting point. CCAC's experience (see PAPERS.md) is
that adversarially-found counterexamples only become actionable once
minimized, so this module applies greedy delta debugging: propose a
simpler variant, keep it iff the oracle battery still produces the
*same finding signature* (``oracle:kind:component`` with indices
stripped — see :func:`repro.fuzz.oracles.normalize_component` — so
dropping flow 3 of 10 does not change the finding's identity), repeat
to a fixpoint.

Transformations, largest reduction first:

* drop half the flows, then individual flows,
* collapse a multi-bottleneck topology to the legacy dumbbell (keep
  the first link's parameters), drop its trailing links, shorten
  explicit flow paths to their first hop,
* halve the duration (down to a floor), zero the warmup,
* drop ACK/data path elements (all, then one at a time), reset
  ``start_time``/``ack_every``/``burst_size``/link extras to defaults,
* halve element windows, round element parameters to 3 decimals.

Every candidate is validated by construction (the spec validators run
in ``replace``), so an over-aggressive transformation is skipped, not
crashed on. The total battery-run count is capped (``max_runs``) —
shrinking is best-effort, not exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, Optional, Tuple

from ..errors import ReproError
from ..spec import FlowSpec, LinkSpec, ScenarioSpec
from .oracles import run_battery

#: Shortest duration the shrinker will propose; below ~half a second
#: most CCAs never leave slow start and findings stop reproducing.
MIN_DURATION = 0.5


@dataclass
class ShrinkResult:
    """What shrinking achieved."""

    spec: ScenarioSpec           # the minimized spec (== input if stuck)
    signature: str
    runs: int                    # battery invocations spent
    steps: int                   # accepted simplifications

    @property
    def improved(self) -> bool:
        return self.steps > 0


def reproduces(spec: ScenarioSpec, signature: str,
               max_events: Optional[int] = None) -> bool:
    """Does the battery still yield ``signature`` for this spec?"""
    determinism = signature.startswith("determinism:")
    result = run_battery(spec, max_events=max_events,
                         determinism=determinism)
    return signature in result.signatures


def _rounded_params(params: Dict[str, Any]) -> Dict[str, Any]:
    rounded = {}
    for key, value in params.items():
        if isinstance(value, float):
            rounded[key] = round(value, 3)
        else:
            rounded[key] = value
    return rounded


def _flow_candidates(flow: FlowSpec) -> Iterator[Tuple[str, FlowSpec]]:
    """Simpler variants of one flow (same order every call)."""
    if flow.ack_elements:
        yield "drop ack elements", replace(flow, ack_elements=())
    if flow.data_elements:
        yield "drop data elements", replace(flow, data_elements=())
    if flow.start_time != 0.0:
        yield "zero start_time", replace(flow, start_time=0.0)
    if flow.ack_every != 1 or flow.ack_timeout is not None:
        yield "default acking", replace(flow, ack_every=1,
                                        ack_timeout=None)
    if flow.burst_size != 1:
        yield "no bursts", replace(flow, burst_size=1)
    for elements_attr in ("ack_elements", "data_elements"):
        elements = getattr(flow, elements_attr)
        for i, element in enumerate(elements):
            def swapped(*simpler: Any) -> FlowSpec:
                kept = elements[:i] + simpler + elements[i + 1:]
                return replace(flow, **{elements_attr: kept})

            if len(elements) > 1:
                yield f"drop {elements_attr}[{i}]", swapped()
            if element.start is not None and element.end != float("inf") \
                    and element.end - element.start > 0.1:
                middle = round((element.start + element.end) / 2, 3)
                yield (f"halve {elements_attr}[{i}] window",
                       swapped(replace(element, end=middle)))
            rounded = _rounded_params(element.params)
            if rounded != element.params:
                yield (f"round {elements_attr}[{i}] params",
                       swapped(replace(element, params=rounded)))


def _candidates(spec: ScenarioSpec
                ) -> Iterator[Tuple[str, ScenarioSpec]]:
    """Every one-step simplification of ``spec``, biggest first.

    Candidates whose construction the validators reject are silently
    skipped — an invalid candidate is just a dead end, not an error.
    """
    def attempt(description: str, build) -> Iterator[
            Tuple[str, ScenarioSpec]]:
        try:
            candidate = build()
        except (ReproError, ValueError, TypeError):
            return
        if candidate != spec:
            yield description, candidate

    flows = spec.flows
    if len(flows) > 1:
        half = len(flows) // 2
        yield from attempt("keep first half of flows",
                           lambda: replace(spec, flows=flows[:half]))
        yield from attempt("keep second half of flows",
                           lambda: replace(spec, flows=flows[half:]))
        for i in range(len(flows)):
            kept = flows[:i] + flows[i + 1:]
            yield from attempt(f"drop flow {i}",
                               lambda kept=kept:
                               replace(spec, flows=kept))
    if spec.duration is not None and spec.duration > MIN_DURATION:
        shorter = max(MIN_DURATION, round(spec.duration / 2, 2))
        warmup = spec.warmup
        if warmup is not None and warmup >= shorter:
            warmup = round(shorter * 0.25, 2)
        yield from attempt(
            "halve duration",
            lambda: replace(spec, duration=shorter, warmup=warmup))
    if spec.warmup:
        yield from attempt("zero warmup",
                           lambda: replace(spec, warmup=0.0))
    if spec.topology is not None:
        # The big multi-hop reduction first: a finding that survives on
        # the first queue alone becomes an ordinary dumbbell regression.
        first = spec.topology.links[0]
        yield from attempt(
            "collapse topology to dumbbell",
            lambda: replace(
                spec, topology=None,
                link=LinkSpec(rate=first.rate,
                              buffer_bytes=first.buffer_bytes,
                              buffer_bdp=first.buffer_bdp,
                              ecn_threshold_bytes=first.ecn_threshold_bytes,
                              elements=first.elements),
                flows=tuple(replace(f, path=()) for f in spec.flows)))
        if len(spec.topology.links) > 1:
            # Flows whose explicit path names the dropped link make the
            # candidate invalid; attempt() skips it.
            yield from attempt(
                "drop last topology link",
                lambda: replace(spec, topology=replace(
                    spec.topology, links=spec.topology.links[:-1])))
        for i, flow in enumerate(flows):
            if len(flow.path) > 1:
                kept = (flows[:i] + (replace(flow, path=(flow.path[0],)),)
                        + flows[i + 1:])
                yield from attempt(f"flow {i}: first-hop path",
                                   lambda kept=kept:
                                   replace(spec, flows=kept))
    if spec.link is not None and spec.link.elements:
        yield from attempt(
            "drop link elements",
            lambda: replace(spec, link=replace(spec.link, elements=())))
    if spec.link is not None \
            and spec.link.ecn_threshold_bytes is not None:
        yield from attempt(
            "drop ECN threshold",
            lambda: replace(spec, link=replace(spec.link,
                                               ecn_threshold_bytes=None)))
    if spec.link is not None and (spec.link.buffer_bdp is not None
                                  or spec.link.buffer_bytes is not None):
        yield from attempt(
            "default buffer",
            lambda: replace(spec, link=replace(
                spec.link, buffer_bdp=None, buffer_bytes=None)))
    for i, flow in enumerate(flows):
        for description, simpler in _flow_candidates(flow):
            kept = flows[:i] + (simpler,) + flows[i + 1:]
            yield from attempt(f"flow {i}: {description}",
                               lambda kept=kept:
                               replace(spec, flows=kept))


def shrink_spec(spec: ScenarioSpec, signature: str,
                max_events: Optional[int] = None,
                max_runs: int = 200) -> ShrinkResult:
    """Greedy delta debugging toward a minimal spec with the finding.

    Deterministic: candidates are proposed in a fixed order and the
    first accepted one restarts the scan, so the same (spec,
    signature) pair always minimizes to the same result.
    """
    current = spec
    runs = 0
    steps = 0
    improved = True
    while improved and runs < max_runs:
        improved = False
        for _description, candidate in _candidates(current):
            if runs >= max_runs:
                break
            runs += 1
            try:
                keep = reproduces(candidate, signature,
                                  max_events=max_events)
            except ReproError:
                continue
            if keep:
                current = candidate
                steps += 1
                improved = True
                break
    return ShrinkResult(spec=current, signature=signature, runs=runs,
                        steps=steps)
