"""The four benchmark workloads.

A workload is a fixed ordered list of op *kinds*; a *pass* runs each
kind once. Each workload drives the program through public entry points
only and checks what comes back. The protocol the runner relies on:

    setup()                 fixtures; not timed as an op
    begin_pass(rep)         per-pass inputs, outside the timers
    op(kind, rep) -> out    the one call that is timed
    verify(kind, rep, out)  output checks, outside the timers;
                            returns a list of failure messages
    end_pass(rep)           per-pass clean-up, outside the timers
    close()                 release fixtures

``repro`` is imported inside ``setup()``, per workload: ``cli_sweep``
runs the program only in children, and its set-up time and RSS must not
carry an import the workload never needs. Why these four, and which
layers each one bypasses, is recorded in ``bench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: The sweep grid shared by ``cli_sweep`` and ``service_warm``: eight
#: log-spaced link rates from 0.5 to 50 Mbit/s.
SWEEP_GRID = [round(0.5 * 100 ** (i / 7), 3) for i in range(8)]
SWEEP_RM_MS = 40.0
SWEEP_DURATION = 3.0
SWEEP_CCA = "copa"


def child_env() -> Dict[str, str]:
    """Environment for ``python -m repro.cli`` children of the bench."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for name in ("REPRO_CACHE_DIR", "REPRO_CRASH_DIR", "REPRO_INVARIANTS"):
        env.pop(name, None)
    return env


def digest(value: Any) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def stats_rows(result: Any) -> List[Tuple]:
    """A run's ``FlowStats`` as plain tuples (exact float reprs)."""
    return [(s.flow_id, s.label, s.throughput, s.goodput, s.mean_rtt,
             s.min_rtt, s.max_rtt, s.losses, s.retransmits, s.timeouts,
             s.share) for s in result.stats]


class Workload:
    name = ""
    kinds: Tuple[str, ...] = ()
    #: Root span of one op in a traced run; also the stem of the
    #: per-kind metric the issue named (``ccas.copa.op`` + ``_cal_ms``).
    span = "{kind}"
    #: True when ``repro`` code runs in child processes of the worker,
    #: so peak RSS is read from ``RUSAGE_CHILDREN`` instead of self.
    rss_from_children = False

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        #: First output digest per kind: what later repetitions must
        #: equal, and what parent and change are compared by.
        self.digests: Dict[str, str] = {}
        #: Exact counts only the workload can see (a child's cache
        #: line); the traced run reports them per pass.
        self.counts: Dict[str, float] = {}

    def setup(self) -> None:
        pass

    def begin_pass(self, rep: int) -> None:
        pass

    def op(self, kind: str, rep: int) -> Any:
        raise NotImplementedError

    def verify(self, kind: str, rep: int, out: Any) -> List[str]:
        raise NotImplementedError

    def end_pass(self, rep: int) -> None:
        pass

    def close(self) -> None:
        pass

    def _same_as_first(self, kind: str, value: Any) -> List[str]:
        found = digest(value)
        first = self.digests.setdefault(kind, found)
        if found != first:
            return [f"{kind}: output digest {found} differs from the "
                    f"first repetition's {first}"]
        return []


class StarvePairs(Workload):
    """The four Section 5 two-flow starvation experiments."""

    name = "starve_pairs"
    kinds = ("copa", "bbr", "vivace", "allegro")
    span = "ccas.{kind}.op"
    #: The paper's 120 Mbit/s link scaled down 10x; RTTs stay.
    RATE_MBPS = 12.0
    MIN_STARVED_RATIO = 5.0
    MIN_UTILIZATION = 0.85

    def setup(self) -> None:
        from repro.analysis import starvation
        rate = self.RATE_MBPS
        # Only Allegro's loss element takes a seed at this entry point;
        # the other three experiments are the paper's constants.
        loss_seed = random.Random(self.seed).randrange(1, 2 ** 31)
        self.experiments = {
            "copa": lambda: starvation.copa_two_flow_poisoned(
                rate_mbps=rate, duration=30.0),
            "bbr": lambda: starvation.bbr_rtt_starvation(
                rate_mbps=rate, duration=60.0),
            "vivace": lambda: starvation.vivace_ack_aggregation(
                rate_mbps=rate, duration=60.0),
            "allegro": lambda: starvation.allegro_asymmetric_loss(
                rate_mbps=rate, duration=60.0, seed=loss_seed),
        }

    def op(self, kind: str, rep: int) -> Any:
        return self.experiments[kind]()

    def verify(self, kind: str, rep: int, out: Any) -> List[str]:
        problems = self._same_as_first(kind, stats_rows(out))
        if kind in ("bbr", "vivace") \
                and out.throughput_ratio() < self.MIN_STARVED_RATIO:
            problems.append(
                f"{kind}: throughput ratio {out.throughput_ratio():.2f} "
                f"< {self.MIN_STARVED_RATIO} (no starvation)")
        if out.utilization() < self.MIN_UTILIZATION:
            problems.append(
                f"{kind}: utilization {out.utilization():.3f} "
                f"< {self.MIN_UTILIZATION}")
        return problems


class ParkingLot(Workload):
    """Three flows over two bottlenecks, and the same flows over one."""

    name = "parking_lot"
    kinds = ("lot2", "dumbbell3")
    span = "sim.network.{kind}"
    DURATION = 10.0
    RATE_MBPS = 48.0
    RM_MS = 50.0

    def specs(self) -> Dict[str, Any]:
        """``lot2`` is exactly ``repro.perf.bench.bench_parking_lot``'s
        spec; ``dumbbell3`` puts the same flows on one ``LinkSpec``."""
        from repro import units
        from repro.spec import (CCASpec, FlowSpec, LinkSpec, ScenarioSpec,
                                parking_lot_topology)
        rate, rm = units.mbps(self.RATE_MBPS), units.ms(self.RM_MS)
        lot2 = ScenarioSpec(
            topology=parking_lot_topology([rate, rate * 0.8],
                                          buffer_bdp=4.0),
            flows=(FlowSpec(cca=CCASpec("copa"), rm=rm),
                   FlowSpec(cca=CCASpec("reno"), rm=rm, path=("b0",)),
                   FlowSpec(cca=CCASpec("cubic"), rm=rm, path=("b1",))),
            seed=self.seed)
        dumbbell3 = ScenarioSpec(
            link=LinkSpec(rate=rate, buffer_bdp=4.0),
            flows=tuple(FlowSpec(cca=CCASpec(name), rm=rm)
                        for name in ("copa", "reno", "cubic")),
            seed=self.seed)
        return {"lot2": lot2, "dumbbell3": dumbbell3}

    def setup(self) -> None:
        self.scenarios = self.specs()

    def op(self, kind: str, rep: int) -> Any:
        # The first pass (part of set-up) runs under the strict
        # invariant sentinel. It schedules no events, so that pass must
        # succeed *and* produce the digests every later pass repeats.
        return self.scenarios[kind].run(
            duration=self.DURATION, warmup=self.DURATION / 3,
            invariants="strict" if rep == 0 else None)

    def verify(self, kind: str, rep: int, out: Any) -> List[str]:
        return self._same_as_first(kind, stats_rows(out))


class CliSweep(Workload):
    """``repro sweep`` as a subprocess: cold store, then the same warm."""

    name = "cli_sweep"
    kinds = ("cold", "warm")
    span = "cli.sweep_{kind}"
    rss_from_children = True

    def begin_pass(self, rep: int) -> None:
        self.pass_dir = os.path.join(self.workdir, f"pass-{rep}")
        os.makedirs(self.pass_dir)

    def end_pass(self, rep: int) -> None:
        shutil.rmtree(self.pass_dir, ignore_errors=True)

    def command(self, kind: str) -> List[str]:
        return [sys.executable, "-m", "repro.cli", "sweep",
                "--cca", SWEEP_CCA,
                "--rates", ",".join(repr(r) for r in SWEEP_GRID),
                "--rm", repr(SWEEP_RM_MS),
                "--duration", repr(SWEEP_DURATION),
                "--seed", str(self.seed),
                "--cache-dir", os.path.join(self.pass_dir, "cache"),
                "--json", os.path.join(self.pass_dir, f"{kind}.json")]

    def op(self, kind: str, rep: int) -> Any:
        return subprocess.run(self.command(kind), env=child_env(),
                              cwd=self.pass_dir, capture_output=True,
                              text=True)

    def verify(self, kind: str, rep: int, out: Any) -> List[str]:
        if out.returncode != 0:
            return [f"{kind}: exit {out.returncode}: "
                    f"{out.stderr.strip()[-300:]}"]
        points = len(SWEEP_GRID)
        expect = (0, points) if kind == "cold" else (points, 0)
        line = re.search(r"cache: (\d+) hit\(s\), (\d+) miss\(es\)",
                         out.stdout)
        found = tuple(int(n) for n in line.groups()) if line else None
        problems = []
        if found != expect:
            problems.append(f"{kind}: cache (hits, misses) = {found}, "
                            f"expected {expect}")
        else:
            for name, value in zip(("store.hits", "store.misses"), found):
                self.counts[name] = self.counts.get(name, 0) + value
        with open(os.path.join(self.pass_dir, f"{kind}.json"), "rb") as fh:
            document = fh.read()
        if kind == "cold":
            self.cold_document = document
        elif document != self.cold_document:
            problems.append("warm: --json differs from the cold run's")
        return problems + self._same_as_first(kind, document)


class ServiceWarm(Workload):
    """submit -> wait -> result against an in-process daemon, all warm."""

    name = "service_warm"
    kinds = ("new_job", "resubmit")
    span = "service.{kind}"
    server = None

    def setup(self) -> None:
        from repro import units
        from repro.analysis.sweep import sweep_rate_delay
        from repro.service import (JobSpec, ServiceClient, SweepService,
                                   render_result, serve_background)
        from repro.store import ResultStore
        self.store = ResultStore(os.path.join(self.workdir, "cache"))
        self._job_spec = JobSpec.sweep
        self._render = render_result
        self._local = lambda grid: sweep_rate_delay(
            SWEEP_CCA, grid, units.ms(SWEEP_RM_MS),
            duration=SWEEP_DURATION, seed=self.seed, store=self.store)
        cold = self._local(SWEEP_GRID)
        if cold.failures or len(cold.points) != len(SWEEP_GRID):
            raise RuntimeError(f"could not warm the store: {cold.failures}")
        self.service = SweepService(os.path.join(self.workdir, "jobs"),
                                    self.store)
        self.server = serve_background(self.service)
        self.client = ServiceClient(
            f"http://127.0.0.1:{self.server.port}")
        self._rng = random.Random(self.seed)
        self._seen = set()

    def _fresh_grid(self) -> List[float]:
        """A grid order this daemon has not seen: a new job id over the
        same eight point keys (keys depend on the rate, not its place)."""
        while True:
            grid = list(SWEEP_GRID)
            self._rng.shuffle(grid)
            if tuple(grid) not in self._seen:
                self._seen.add(tuple(grid))
                return grid

    def begin_pass(self, rep: int) -> None:
        self.grid = self._fresh_grid()
        self.spec = self._job_spec(SWEEP_CCA, self.grid, SWEEP_RM_MS,
                                   duration=SWEEP_DURATION, seed=self.seed)

    def op(self, kind: str, rep: int) -> Any:
        # Exactly ``repro submit``'s calls, with the client's defaults.
        job = self.client.submit(self.spec)
        snapshot = self.client.wait(job["id"])
        return snapshot, self.client.result_bytes(job["id"])

    def verify(self, kind: str, rep: int, out: Any) -> List[str]:
        snapshot, raw = out
        problems = []
        cached = snapshot.get("progress", {}).get("cached")
        if snapshot.get("state") != "done" or not snapshot.get("warm") \
                or cached != len(SWEEP_GRID):
            problems.append(
                f"{kind}: job {snapshot.get('id')} state="
                f"{snapshot.get('state')} warm={snapshot.get('warm')} "
                f"cached={cached}, expected a warm job with "
                f"{len(SWEEP_GRID)} cached points")
        expected = self._render(self._local(self.grid).to_json())
        if raw != expected.encode("utf-8"):
            problems.append(f"{kind}: result bytes differ from the local "
                            "warm curve for this grid order")
        # The grid order differs per pass, so repetitions are compared
        # on the order-free set of points.
        points = sorted(repr(p) for p in json.loads(raw)["points"])
        return problems + self._same_as_first(kind, points)

    def corrupt_store(self) -> None:
        """Self-test hook: damage every stored object in place."""
        for key in list(self.store.keys()):
            with open(self.store.path_for(key), "r+b") as fh:
                fh.seek(0)
                fh.write(b"\x00garbage")

    def close(self) -> None:
        if self.server is not None:
            self.server.close()


WORKLOADS = {cls.name: cls for cls in (StarvePairs, ParkingLot, CliSweep,
                                       ServiceWarm)}


def make_workload(name: str, seed: int, workdir: str) -> Workload:
    return WORKLOADS[name](seed, workdir)
