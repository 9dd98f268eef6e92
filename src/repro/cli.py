"""Command-line interface: run scenarios, sweeps, and constructions.

Installed as the ``repro`` console script::

    repro run --rate 48 --rm 40 --cca vegas --cca vegas --duration 20
    repro run --rate 120 --rm 59 --cca copa:poison --cca copa:jitter1
    repro run --rate 48 --rm 40 --cca bbr:blackout5-7 --cca bbr
    repro run --rate 48 --rm 40 --cca reno --cca reno --link-ge 0.02
    repro run --rate 48 --rm 40 --cca vegas --dump-spec > scenario.json
    repro run --spec scenario.json
    repro sweep --cca bbr --rates 0.4,2,10,50 --rm 50
    repro sweep --cca bbr --rates 0.4,2,10,50 --jobs 4 --json curve.json
    repro sweep --cca bbr --rates 0.4,2,10,50 --checkpoint sweep.json
    repro sweep --cca bbr --rates 0.4,2,10,50 --cache-dir ~/.repro-cache
    repro sweep --cca bbr --rates 0.4,2,10,50 --crash-dir crashes
    repro sweep --cca bbr --rates 0.4,2,10,50 --invariants strict
    repro replay crashes/crash-10mbps-1a2b3c4d.json --strict
    repro fuzz --seed 1 --iterations 100 --corpus-dir tests/corpus
    repro fuzz --time-budget 60 --jobs 4 --crash-dir crashes
    repro run --topology topo.json --rm 40 --cca cubic --cca bbr
    repro sweep --cca bbr --topology topo.json --rates 2,10,50
    repro matrix --ccas bbr,cubic,vegas --rate 10 --rm 40 --jobs 4
    repro matrix --ccas bbr,cubic --topology topo.json --json m.json
    repro starve copa|bbr|vivace|allegro|fig7-reno|fig7-cubic
    repro theorem 1|2|3
    repro cache stats|ls|gc|verify --cache-dir ~/.repro-cache
    repro cache gc --max-age-days 30 --max-bytes 100000000
    repro serve --job-dir jobs --cache-dir ~/.repro-cache --port 8642
    repro submit sweep --cca bbr --rates 0.4,2,10,50 --rm 50
    repro submit matrix --ccas bbr,cubic --rate 10 --rm 40
    repro jobs
    repro jobs JOB_ID --events
    repro jobs JOB_ID --cancel
    python -m cProfile -s cumulative -m repro.cli run --rate 48 --cca copa

Flow-spec strings and ``--link-*`` flags are sugar over the declarative
:mod:`repro.spec` layer: every invocation first assembles a
:class:`~repro.spec.ScenarioSpec` (inspect it with ``--dump-spec``,
replay it with ``--spec``), then hands it to an execution backend —
``--jobs N`` fans independent scenarios or sweep points out over N
worker processes with bit-identical results.

``run``/``sweep``/``starve`` accept ``--cache-dir DIR`` (default: the
``REPRO_CACHE_DIR`` environment variable): results are stored by
content address (:mod:`repro.store`) and a repeated invocation serves
hits instead of simulating, with byte-identical output. ``--force``
recomputes and overwrites entries, ``--no-cache`` ignores the cache
entirely, and ``repro cache`` inspects and maintains a store.

They also accept ``--crash-dir DIR``: every failed point captures a
reproducible crash bundle (params + seed + traceback + budget; see
:mod:`repro.analysis.diagnostics`) that ``repro replay BUNDLE`` re-runs
exactly — and ``--invariants off|warn|strict`` sets the runtime
invariant sentinel mode (:mod:`repro.sim.invariants`).

``sweep`` also accepts ``--checkpoint PATH``: a re-invoked sweep
serves its completed points from the store (``--cache-dir``, or
``PATH.store`` without one) and ``PATH`` remembers only the failed
points, which ``--retry-failures`` runs again. A ``matrix`` resumes
from its ``--cache-dir`` store alone, and runs a failed pair again on
every invocation.

Every command prints an ASCII report; nothing is written to disk unless
``--checkpoint``/``--json``/``--dump-spec``/``--cache-dir`` asks for it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

from . import units
from .errors import ConfigurationError, ReproError, SweepAbortedError
from .analysis.harness import RunBudget, describe_failures
from .analysis.plan import JobPlan, render_result, run_plan
from .analysis.report import FAIRNESS_LEVELS, describe_run, rate_delay_ascii
from .analysis.sweep import compile_sweep_plan
from .analysis import starvation
from .spec import (CCASpec, ElementSpec, FlowSpec, LinkSpec,
                   ScenarioSpec, TopologySpec)
from .store import ResultStore


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    """The caching flags shared by run/sweep/starve."""
    parser.add_argument(
        "--cache-dir", default=os.environ.get("REPRO_CACHE_DIR"),
        metavar="DIR",
        help="content-addressed result store: look results up before "
             "simulating, store them after (default: $REPRO_CACHE_DIR)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore the cache entirely (even if REPRO_CACHE_DIR is set)")
    parser.add_argument(
        "--force", action="store_true",
        help="recompute cached points and overwrite their store entries")


def _add_robustness_flags(parser: argparse.ArgumentParser) -> None:
    """Crash-bundle and invariant-sentinel flags shared by
    run/sweep/starve."""
    parser.add_argument(
        "--crash-dir", default=os.environ.get("REPRO_CRASH_DIR"),
        metavar="DIR",
        help="capture a reproducible crash bundle for every failed "
             "point under DIR; re-run one with 'repro replay' "
             "(default: $REPRO_CRASH_DIR)")
    parser.add_argument(
        "--invariants", choices=["off", "warn", "strict"], default=None,
        help="runtime invariant sentinel mode: off (no checks), warn "
             "(default: report violations, keep running), strict "
             "(first violation fails the point). Also settable via "
             "$REPRO_INVARIANTS")


def _apply_invariants(args: argparse.Namespace) -> None:
    """Install ``--invariants`` as the process-wide sentinel mode.

    Exported through the environment (not ``override_mode``) so spawned
    pool workers inherit it too.
    """
    mode = getattr(args, "invariants", None)
    if mode:
        from .sim.invariants import ENV_VAR
        os.environ[ENV_VAR] = mode


def _add_pool_flags(parser: argparse.ArgumentParser, unit: str) -> None:
    """``--jobs``, shared by run/sweep/matrix/starve."""
    parser.add_argument(
        "--jobs", type=int, default=None,
        help=f"run {unit} in N worker processes (bit-identical to "
             f"serial)")


def _add_budget_flags(parser: argparse.ArgumentParser, unit: str,
                      on_excess: str) -> None:
    """Per-point watchdog and fail-fast flags, shared by
    sweep/matrix/serve."""
    parser.add_argument(
        "--max-events", type=int, default=20_000_000,
        help=f"per-{unit} event budget (watchdog; default 20M)")
    parser.add_argument(
        "--wall-clock", type=float, default=120.0,
        help=f"per-{unit} wall-clock budget in seconds (default 120)")
    parser.add_argument(
        "--max-failures", type=int, default=None, metavar="N",
        help=f"{on_excess} once more than N {unit}s have failed (0 = "
             f"on the first failure; default: never, record failures "
             f"and continue)")


def _add_client_flags(parser: argparse.ArgumentParser, timeout: float,
                      timeout_help: str) -> None:
    """``--url``/``--timeout``, shared by submit/jobs."""
    parser.add_argument(
        "--url", default=os.environ.get("REPRO_SERVICE_URL",
                                        "http://127.0.0.1:8642"),
        help="daemon base URL (default: $REPRO_SERVICE_URL or "
             "http://127.0.0.1:8642)")
    parser.add_argument(
        "--timeout", type=float, default=timeout,
        help=f"{timeout_help} (default {timeout:g})")


def _write_json(path: str, doc: Dict[str, Any]) -> None:
    """Write ``doc`` in the canonical result serialization."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_result(doc))


def _cache_store(args: argparse.Namespace) -> Optional[ResultStore]:
    """The ResultStore the flags ask for, or None."""
    if args.no_cache or not args.cache_dir:
        return None
    return ResultStore(args.cache_dir)


def _print_cache_line(store: Optional[ResultStore], hits: int,
                      misses: int) -> None:
    if store is not None:
        print(f"cache: {hits} hit(s), {misses} miss(es) [{store.root}]")


def _parse_window(text: str, what: str) -> tuple:
    """Parse ``START-END`` (seconds) into a (start, end) float pair."""
    start, sep, end = text.partition("-")
    try:
        if not sep:
            raise ValueError(text)
        return float(start), float(end)
    except ValueError:
        raise SystemExit(
            f"{what} wants START-END in seconds, got {text!r}")


def parse_flow_spec(spec: str, rm: float) -> FlowSpec:
    """Parse ``cca[:modifier[:modifier...]]`` into a declarative FlowSpec.

    ACK-path modifiers: ``poison`` (min-RTT poisoning, 1 ms),
    ``poisonN`` (N ms), ``jitterN`` (constant N ms), ``aggN`` (ACK
    aggregation, N ms), ``delackN`` (delayed ACKs of N packets).

    Data-path modifiers (see :mod:`repro.sim.faults`):
    ``geP`` (Gilbert-Elliott bursty loss, mean rate P),
    ``blackoutA-B`` (outage from A to B seconds),
    ``flapP-D`` (flapping: every P seconds the link is down for D),
    ``reorderP`` (delay-swap reordering with probability P),
    ``dupP`` (duplication with probability P),
    ``corruptP`` (random loss with probability P).

    Stochastic modifiers take their seed from the scenario root seed
    and their position, like every other element.
    """
    name, _, rest = spec.partition(":")
    cca = CCASpec(name)
    ack_elements: List[ElementSpec] = []
    data_elements: List[ElementSpec] = []
    ack_every = 1
    ack_timeout: Optional[float] = None
    for modifier in (m for m in rest.split(":") if m):
        # ValueError (bad number) and ConfigurationError (bad window /
        # param) gain the modifier's name. SystemExit from
        # _parse_window passes through untouched.
        try:
            if modifier.startswith("poison"):
                amount = units.ms(float(modifier[6:] or 1.0))
                ack_elements.append(ElementSpec(
                    "exempt_first_jitter",
                    {"eta": amount, "exempt_seqs": [0]}))
            elif modifier.startswith("jitter"):
                amount = units.ms(float(modifier[6:]))
                ack_elements.append(ElementSpec(
                    "constant_jitter", {"eta": amount}))
            elif modifier.startswith("agg"):
                amount = units.ms(float(modifier[3:]))
                ack_elements.append(ElementSpec(
                    "ack_aggregation", {"period": amount}))
            elif modifier.startswith("delack"):
                ack_every = int(modifier[6:])
                ack_timeout = units.ms(200)
            elif modifier.startswith("ge"):
                data_elements.append(ElementSpec(
                    "gilbert_elliott", {"mean_loss": float(modifier[2:])}))
            elif modifier.startswith("blackout"):
                start, end = _parse_window(modifier[8:], "blackout")
                data_elements.append(ElementSpec("blackout", start=start,
                                                 end=end))
            elif modifier.startswith("flap"):
                period, down = _parse_window(modifier[4:], "flap")
                data_elements.append(ElementSpec(
                    "flap", {"period": period, "down_time": down}))
            elif modifier.startswith("reorder"):
                data_elements.append(ElementSpec(
                    "reorder", {"reorder_prob": float(modifier[7:]),
                                "extra_delay": units.ms(10)}))
            elif modifier.startswith("dup"):
                data_elements.append(ElementSpec(
                    "duplicate", {"dup_prob": float(modifier[3:])}))
            elif modifier.startswith("corrupt"):
                data_elements.append(ElementSpec(
                    "random_loss", {"loss_prob": float(modifier[7:])}))
            else:
                raise SystemExit(f"unknown flow modifier {modifier!r}")
        except (ValueError, ConfigurationError) as exc:
            raise SystemExit(f"bad flow modifier {modifier!r}: {exc}")
    return FlowSpec(cca=cca, rm=rm,
                    data_elements=tuple(data_elements),
                    ack_elements=tuple(ack_elements),
                    ack_every=ack_every, ack_timeout=ack_timeout,
                    label=spec)


def parse_link_faults(args: argparse.Namespace) -> Tuple[ElementSpec, ...]:
    """The shared-bottleneck elements the ``--link-*`` flags ask for."""
    elements: List[ElementSpec] = []
    for window in args.link_blackout or ():
        start, end = _parse_window(window, "--link-blackout")
        elements.append(ElementSpec("blackout", start=start, end=end))
    if args.link_flap:
        period, down = _parse_window(args.link_flap, "--link-flap")
        elements.append(ElementSpec(
            "flap", {"period": period, "down_time": down}))
    if args.link_ge:
        elements.append(ElementSpec(
            "gilbert_elliott", {"mean_loss": args.link_ge}))
    return tuple(elements)


def _load_topology(path: str) -> TopologySpec:
    try:
        return TopologySpec.load(path)
    except ConfigurationError as exc:
        raise SystemExit(f"bad topology spec {path!r}: {exc}")


def _specs_from_args(args: argparse.Namespace
                     ) -> List[Tuple[str, ScenarioSpec]]:
    """The scenarios ``repro run`` should execute, as (title, spec)."""
    if args.topology:
        if args.spec:
            raise SystemExit("pass --topology or --spec, not both")
        if not args.cca or args.rm is None:
            raise SystemExit(
                "run --topology needs --rm and at least one --cca")
        if args.link_blackout or args.link_flap or args.link_ge:
            raise SystemExit(
                "--link-* fault flags target the single dumbbell "
                "bottleneck; list a link's impairments under its "
                "'elements' in the topology file instead")
        topology = _load_topology(args.topology)
        rm = units.ms(args.rm)
        flows = tuple(parse_flow_spec(spec, rm) for spec in args.cca)
        spec = ScenarioSpec(topology=topology, flows=flows,
                            seed=args.seed if args.seed is not None else 0)
        title = (f"topology {args.topology} "
                 f"({len(topology.links)} link(s)), Rm = {args.rm} ms")
        return [(title, spec)]
    if args.spec:
        if args.cca:
            raise SystemExit("pass --spec files or --cca flow specs, "
                             "not both")
        specs = []
        for path in args.spec:
            spec = ScenarioSpec.load(path)
            if args.seed is not None:
                spec = spec.with_seed(args.seed)
            specs.append((path, spec))
        return specs
    if not args.cca or args.rate is None or args.rm is None:
        raise SystemExit(
            "run needs --rate, --rm and at least one --cca "
            "(or --spec FILE)")
    rm = units.ms(args.rm)
    flows = tuple(parse_flow_spec(spec, rm) for spec in args.cca)
    link = LinkSpec(rate=units.mbps(args.rate),
                    buffer_bdp=args.buffer_bdp if args.buffer_bdp
                    else None,
                    elements=parse_link_faults(args))
    spec = ScenarioSpec(link=link, flows=flows,
                        seed=args.seed if args.seed is not None else 0)
    return [(f"{args.rate} Mbit/s, Rm = {args.rm} ms", spec)]


def _run_spec_point(params: Dict[str, Any], budget: RunBudget
                    ) -> Dict[str, str]:
    """The report worker of ``repro run`` and ``repro starve``: build,
    run, format the report.

    Module-level and spec-driven so ``--jobs N`` can ship scenarios to
    worker processes; the formatted report string comes back instead of
    the (unpicklable) live RunResult.
    """
    spec = ScenarioSpec.from_json(params["scenario"])
    result = spec.run(duration=params["duration"],
                      warmup=params["warmup"],
                      max_events=budget.max_events,
                      wall_clock_budget=budget.wall_clock)
    return {"report": describe_run(params["title"], result,
                                   levels=params["levels"])}


def _report_specs(args: argparse.Namespace,
                  specs: List[Tuple[str, ScenarioSpec]], title: str,
                  duration: Optional[float] = None,
                  max_events: Optional[int] = None) -> int:
    """Run named specs as report points and print the reports in order.

    A point's params are the serialized spec, the window it runs for
    (``duration``, else the spec's embedded one, else 30 s; warmup the
    spec's, else a third), its heading, ``title`` formatted with
    ``name`` and ``duration``, and the s levels of its Definition 2
    line — so the cache key covers everything the report says and a
    crash bundle replays on its own.
    """
    points = []
    for i, (name, spec) in enumerate(specs):
        run_for = next(d for d in (duration, spec.duration, 30.0)
                       if d is not None)
        points.append((f"{i}:{name}", {
            "scenario": spec.to_json(),
            "duration": run_for,
            "warmup": run_for / 3 if spec.warmup is None else spec.warmup,
            "title": title.format(name=name, duration=run_for),
            "levels": list(FAIRNESS_LEVELS),
        }))

    def assemble(outcome: Any) -> SimpleNamespace:  # run_plan adds .cache
        return SimpleNamespace(texts=[
            outcome.completed[key]["report"] for key, _ in points
            if key in outcome.completed])

    store = _cache_store(args)
    outcome, reports = run_plan(
        JobPlan(_run_spec_point, points, assemble),
        budget=RunBudget(max_events=max_events, wall_clock=None),
        jobs=args.jobs, store=store, refresh=args.force,
        crash_dir=args.crash_dir)
    for text in reports.texts:
        print(text)
    _print_cache_line(store, outcome.hits, outcome.misses)
    if outcome.failures:
        print(f"{len(outcome.failures)} scenario(s) failed:")
        print(describe_failures(outcome.failures))
        return 1
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    _apply_invariants(args)
    specs = _specs_from_args(args)
    if args.dump_spec:
        for _, spec in specs:
            print(spec.dumps())
        return 0
    return _report_specs(args, specs, "{name}, {duration:.0f} s",
                         duration=args.duration,
                         max_events=args.max_events)


def _add_sweep_args(parser: argparse.ArgumentParser) -> None:
    """The rate-delay experiment flags, shared by sweep/submit sweep."""
    parser.add_argument("--cca", required=True)
    parser.add_argument("--rates", default="0.4,2,10,50")
    parser.add_argument("--rm", type=float, default=50.0)
    parser.add_argument("--duration", type=float, default=None)
    parser.add_argument(
        "--seed", type=int, default=0,
        help="root seed; per-point scenario seeds derive from it")
    parser.add_argument(
        "--spec", default=None, metavar="FILE",
        help="sweep a ScenarioSpec template: each grid point runs the "
             "template with its bottleneck rate replaced")
    parser.add_argument(
        "--topology", default=None, metavar="FILE",
        help="sweep over a TopologySpec JSON graph: one --cca flow "
             "routed over every link, with the first link's rate "
             "(the designated bottleneck) swept across --rates")
    parser.set_defaults(params=_sweep_params)


def _sweep_params(args: argparse.Namespace) -> Dict[str, Any]:
    """The sweep parameter document the flags describe — what
    ``compile_sweep_plan`` compiles locally and ``repro submit`` sends
    as a JobSpec."""
    template = None
    if args.topology:
        if args.spec:
            raise SystemExit("pass --topology or --spec, not both")
        # One flow of the swept CCA routed over every link; each grid
        # point replaces the first (designated bottleneck) link's rate.
        template = ScenarioSpec(
            topology=_load_topology(args.topology),
            flows=(FlowSpec(cca=CCASpec(args.cca),
                            rm=units.ms(args.rm)),))
    elif args.spec:
        template = ScenarioSpec.load(args.spec)
    return {
        "cca": args.cca,
        "rates_mbps": [float(x) for x in args.rates.split(",")],
        "rm_ms": args.rm,
        "duration": args.duration,
        "seed": args.seed,
        "template": None if template is None else template.to_json(),
    }


def _add_matrix_args(parser: argparse.ArgumentParser) -> None:
    """The competition experiment flags, shared by matrix/submit
    matrix."""
    parser.add_argument(
        "--ccas", required=True, metavar="NAME[,NAME...]",
        help="comma-separated CCA registry names; every unordered "
             "pair (incl. self-pairs) competes head-to-head")
    parser.add_argument(
        "--rate", type=float, default=10.0,
        help="bottleneck rate in Mbit/s (with --topology: the first "
             "link's rate; default 10)")
    parser.add_argument(
        "--rm", type=float, default=40.0,
        help="both flows' propagation RTT, ms (default 40)")
    parser.add_argument(
        "--duration", type=float, default=30.0,
        help="per-pair run length in seconds (default 30; the first "
             "half is warmup)")
    parser.add_argument(
        "--seed", type=int, default=0,
        help="root seed; per-pair scenario seeds derive from it")
    parser.add_argument(
        "--starve-threshold", type=float, default=50.0, metavar="S",
        help="flag a pair as starved when its max/min throughput "
             "ratio reaches S (default 50)")
    parser.add_argument(
        "--topology", default=None, metavar="FILE",
        help="compete over a TopologySpec JSON graph (both flows "
             "routed over every link) instead of the dumbbell")
    parser.set_defaults(params=_matrix_params)


def _matrix_params(args: argparse.Namespace) -> Dict[str, Any]:
    """The matrix parameter document the flags describe (see
    :func:`_sweep_params`)."""
    names = [name.strip() for name in args.ccas.split(",")
             if name.strip()]
    topology = None
    if args.topology:
        topology = _load_topology(args.topology).to_json()
    return {
        "ccas": names,
        "rate_mbps": args.rate,
        "rm_ms": args.rm,
        "duration": args.duration,
        "seed": args.seed,
        "starve_threshold": args.starve_threshold,
        "topology": topology,
    }


def _add_grid_flags(parser: argparse.ArgumentParser, unit: str,
                    on_excess: str) -> None:
    """The execution flags :func:`_run_grid` reads, shared by
    sweep/matrix."""
    _add_pool_flags(parser, f"{unit}s")
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help=f"also write the result ({unit}s + failures) as JSON")
    _add_budget_flags(parser, unit, on_excess)
    _add_cache_flags(parser)
    _add_robustness_flags(parser)


def _run_grid(args: argparse.Namespace, compiler: Any,
              **resume: Any) -> Any:
    """Compile the flags' parameter document and run its plan the way
    the sweep/matrix flags ask (``resume``: the sweep's checkpoint
    keywords for :func:`run_plan`); returns the assembled result, or
    None when ``--max-failures`` aborted the grid."""
    store = _cache_store(args)
    try:
        outcome, result = run_plan(
            compiler(**args.params(args)),
            budget=RunBudget(max_events=args.max_events,
                             wall_clock=args.wall_clock),
            jobs=args.jobs,
            store=store, refresh=args.force, crash_dir=args.crash_dir,
            max_failures=args.max_failures, **resume)
    except SweepAbortedError as exc:
        print(f"{args.command} aborted early (--max-failures "
              f"{args.max_failures}):")
        print(describe_failures(exc.failures))
        return None
    if args.json:
        _write_json(args.json, result.to_json())
    _print_cache_line(store, outcome.hits, outcome.misses)
    return result


def cmd_sweep(args: argparse.Namespace) -> int:
    _apply_invariants(args)
    curve = _run_grid(args, compile_sweep_plan,
                      checkpoint_path=args.checkpoint,
                      retry_failures_on_resume=args.retry_failures)
    if curve is None:
        if args.checkpoint:
            store = (args.cache_dir if args.cache_dir and not args.no_cache
                     else f"{args.checkpoint}.store")
            print(f"completed points are in the store {store} and the "
                  f"failures in {args.checkpoint}; fix the setup and "
                  f"re-invoke with --retry-failures to resume")
        return 1
    if not curve.points:
        print("every grid point failed:")
        print(describe_failures(curve.failures))
        return 1
    print(rate_delay_ascii(curve))
    print(f"delta_max = {curve.delta_max() * 1e3:.2f} ms -> starvation "
          f"possible when jitter D > {2 * curve.delta_max() * 1e3:.2f} ms")
    if curve.failures:
        print(f"{len(curve.failures)} grid point(s) failed:")
        print(describe_failures(curve.failures))
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    """Per-CCA-pair fairness/starvation competition matrix."""
    from .analysis.competition import compile_matrix_plan
    _apply_invariants(args)
    matrix = _run_grid(args, compile_matrix_plan)
    if matrix is None:
        return 1
    print(matrix.describe())
    if matrix.failures:
        print(f"{len(matrix.failures)} pair(s) failed:")
        print(describe_failures(matrix.failures))
        return 1
    return 0


def cmd_starve(args: argparse.Namespace) -> int:
    _apply_invariants(args)
    return _report_specs(
        args, [(name, starvation.SCENARIOS[name].spec())
               for name in dict.fromkeys(args.scenario)],
        "Section 5 scenario: {name}")


def cmd_replay(args: argparse.Namespace) -> int:
    """Re-run the exact grid point captured in a crash bundle."""
    from .analysis.diagnostics import load_bundle, replay_bundle
    try:
        data = load_bundle(args.bundle)
    except (OSError, json.JSONDecodeError, ConfigurationError) as exc:
        raise SystemExit(f"cannot read crash bundle: {exc}")
    mode = "strict" if args.strict else args.invariants
    original = f"{data.get('reason', '?')}: {data.get('message', '')}"
    print(f"replaying point {data.get('key', '?')!r} "
          f"from {args.bundle}")
    print(f"  original failure: {original}")
    if data.get("seed") is not None:
        print(f"  root seed: {data['seed']}")
    if mode:
        print(f"  sentinel mode: {mode}")
    if args.budget_scale != 1.0:
        print(f"  budgets scaled x{args.budget_scale:g}")
    outcome = replay_bundle(args.bundle, invariants=mode,
                            budget_scale=args.budget_scale)
    if outcome.ok:
        print("replay PASSED: the failure did not reproduce "
              "(fixed code, larger budget, or a non-strict mode)")
        return 0
    failure = outcome.failure
    reproduced = failure.reason == data.get("reason")
    print(f"replay FAILED: {failure.reason}: {failure.message}")
    print("the original failure reproduces deterministically"
          if reproduced else
          f"the failure differs from the original ({original})")
    return 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Run a fuzz campaign: random scenarios through the oracle battery."""
    from .fuzz import FuzzConfig, describe_space, run_fuzz
    config = FuzzConfig(max_flows=args.max_flows)
    budget = RunBudget(max_events=args.max_events, wall_clock=None)
    progress = None
    if args.verbose:
        def progress(key: str, status: str) -> None:
            print(f"  {key}: {status}", file=sys.stderr)
    print(f"fuzzing {args.iterations} scenario(s), seed {args.seed}: "
          f"{describe_space(config)}")
    report = run_fuzz(
        iterations=args.iterations, seed=args.seed,
        time_budget=args.time_budget, corpus_dir=args.corpus_dir,
        jobs=args.jobs, budget=budget, config=config,
        differential=not args.no_differential,
        crash_dir=args.crash_dir, progress=progress)
    print(report.describe())
    if args.json:
        _write_json(args.json, report.to_json())
    if report.fresh:
        print(f"{len(report.fresh)} fresh finding(s) not in the corpus"
              + (f" — minimized entries written under "
                 f"{args.corpus_dir}; commit them (and fix the bugs)"
                 if args.corpus_dir else
                 " — re-run with --corpus-dir to file them"))
        return 1
    print("no fresh findings")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect and maintain a content-addressed result store."""
    if not args.cache_dir:
        raise SystemExit(
            "cache wants --cache-dir DIR (or $REPRO_CACHE_DIR)")
    store = ResultStore(args.cache_dir)
    if args.action == "stats":
        stats = store.stats()
        events = stats.events
        print(f"store      {stats.root}")
        print(f"entries    {stats.entries}")
        print(f"bytes      {stats.total_bytes}")
        print(f"temp files {stats.temp_files}")
        print(f"hits       {events.get('hit', 0)}")
        print(f"misses     {events.get('miss', 0)}")
        print(f"failures   {events.get('fail', 0)}")
        print(f"hit rate   {stats.hit_rate:.1%}")
        return 0
    if args.action == "ls":
        count = 0
        for entry in store.entries():
            point = entry["meta"].get("point", "")
            task = entry["task"].rsplit(":", 1)[-1]
            print(f"{entry['key'][:16]}  {entry['bytes']:7d}B  "
                  f"{task:28.28s}  {point}")
            count += 1
        print(f"{count} entr{'y' if count == 1 else 'ies'}")
        return 0
    if args.action == "gc":
        max_bytes = None
        if args.max_bytes is not None:
            max_bytes = int(args.max_bytes)
        report = store.gc(max_age_days=args.max_age_days,
                          max_bytes=max_bytes)
        print(f"removed {report.removed_corrupt} corrupt entr"
              f"{'y' if report.removed_corrupt == 1 else 'ies'}, "
              f"{report.removed_temp} temp file(s)", end="")
        if args.max_age_days is not None:
            print(f", {report.removed_expired} expired "
                  f"(> {args.max_age_days:g} day(s) unused)", end="")
        if max_bytes is not None:
            print(f", {report.removed_evicted} evicted "
                  f"(LRU past {max_bytes} bytes)", end="")
        print(f"; {report.bytes_freed} bytes freed, "
              f"{report.kept} good entr"
              f"{'y' if report.kept == 1 else 'ies'} kept")
        return 0
    # verify (argparse's choices leave nothing else)
    report = store.verify(repair=args.repair)
    print(f"checked {report.checked} entr"
          f"{'y' if report.checked == 1 else 'ies'}: "
          f"{report.ok} ok, {len(report.corrupt)} corrupt, "
          f"{len(report.temp)} orphaned temp file(s)")
    for path in report.corrupt:
        print(f"  corrupt: {path}")
    for path in report.temp:
        print(f"  temp:    {path}")
    if report.repaired:
        for path in report.quarantined:
            print(f"  quarantined -> {path}")
        print(f"quarantined {len(report.quarantined)} file(s) "
              f"under {store.quarantine_dir}; catalog sealed, "
              f"last-use index rebuilt")
        # A repaired store is clean by construction; re-verify so
        # the exit code reflects what the *next* reader will see.
        return 0 if store.verify().clean else 1
    if not report.clean:
        print("run `repro cache verify --repair` to quarantine")
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the sweep-service daemon in the foreground."""
    from .service import (ChaosPolicy, FaultyFS, ReproServer,
                          SweepService)
    _apply_invariants(args)
    if not args.cache_dir:
        raise SystemExit(
            "serve wants --cache-dir DIR (or $REPRO_CACHE_DIR): the "
            "shared result store is the point of the daemon")
    chaos = fs = None
    if args.chaos:
        try:
            chaos = ChaosPolicy.load(args.chaos)
        except (OSError, ValueError, ConfigurationError) as exc:
            raise SystemExit(f"bad --chaos spec: {exc}")
        fs = FaultyFS(chaos)
    store = ResultStore(args.cache_dir, fs=fs)
    service = SweepService(
        args.job_dir, store, jobs=args.jobs,
        budget=RunBudget(max_events=args.max_events,
                         wall_clock=args.wall_clock),
        max_failures=args.max_failures, max_attempts=args.max_attempts,
        fs=fs)
    service.start()  # lock the job directory before binding a port
    try:
        server = ReproServer((args.host, args.port), service,
                             verbose=args.verbose, chaos=chaos)
    except OSError:  # the port is taken
        service.stop()
        raise
    print(f"sweep service listening on "
          f"http://{args.host}:{server.port}")
    print(f"  jobs:  {service.job_store.root}")
    print(f"  store: {store.root}")
    if chaos is not None:
        armed = ", ".join(site.name for site in chaos.sites
                          if site.rate > 0) or "none"
        print(f"  chaos: seed {chaos.seed}, armed sites: {armed}")
    sys.stdout.flush()
    try:
        server.serve()
    except KeyboardInterrupt:
        print("shutting down (unfinished jobs will resume on restart)")
        server.close()
    return 0


def _print_job_line(job: Dict[str, Any]) -> None:
    progress = job.get("progress", {})
    done = (progress.get("done", 0) + progress.get("cached", 0)
            + progress.get("failed", 0))
    flags = []
    if job.get("warm"):
        flags.append("warm")
    if progress.get("cached"):
        flags.append(f"{progress['cached']} cached")
    if progress.get("failed"):
        flags.append(f"{progress['failed']} failed")
    if job.get("degraded"):
        flags.append("degraded")
    suffix = f"  [{', '.join(flags)}]" if flags else ""
    kind = job.get("spec", {}).get("kind", "?")
    print(f"{job['id']}  {job['state']:9s}  {kind:6s} "
          f"{done}/{progress.get('total', 0)}{suffix}")


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit an experiment to a running sweep-service daemon."""
    from .service import JobSpec, ServiceClient
    client = ServiceClient(args.url, timeout=args.timeout)
    spec = JobSpec.from_json({"kind": args.kind, **args.params(args)})
    job = client.submit(spec)
    print(f"submitted job {job['id']} ({job['state']}) to {args.url}")
    if args.no_wait:
        return 0
    snapshot = client.wait(job["id"], timeout=args.timeout)
    _print_job_line(snapshot)
    if snapshot["state"] != "done":
        if snapshot.get("error"):
            print(f"error: {snapshot['error']}")
        return 1
    raw = client.result_bytes(job["id"])
    if args.json:
        with open(args.json, "wb") as fh:
            fh.write(raw)
        print(f"result written to {args.json}")
    else:
        sys.stdout.write(raw.decode("utf-8"))
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    """Inspect (or cancel) jobs on a running daemon."""
    from .service import ServiceClient
    client = ServiceClient(args.url, timeout=args.timeout)
    if args.job_id is None:
        if args.cancel or args.events:
            raise SystemExit("--cancel/--events want a JOB_ID")
        jobs = client.jobs(state=args.state)
        for job in jobs:
            _print_job_line(job)
        counters = client.stats()["counters"]
        print(f"{len(jobs)} job(s); submitted {counters['submitted']}, "
              f"coalesced {counters['coalesced']}, "
              f"completed {counters['completed']}, "
              f"warm {counters['warm']}")
        return 0
    if args.cancel:
        job = client.cancel(args.job_id)
        print(f"job {job['id']} -> {job['state']}")
        return 0
    if args.events:
        try:
            for event in client.events(args.job_id, since=args.since):
                print(json.dumps(event, sort_keys=True))
        except BrokenPipeError:
            # Streaming into `head`/`grep -m` closes stdout early;
            # park it on devnull so interpreter teardown stays quiet.
            os.dup2(os.open(os.devnull, os.O_WRONLY),
                    sys.stdout.fileno())
        return 0
    print(json.dumps(client.job(args.job_id), indent=1,
                     sort_keys=True))
    return 0


def cmd_theorem(args: argparse.Namespace) -> int:
    from .core.theorems import (construct_starvation,
                                construct_strong_model_starvation,
                                construct_underutilization)
    from .model.cca import WindowTargetCCA

    rm = 0.05
    if args.number == 1:
        con = construct_starvation(
            lambda initial: WindowTargetCCA(alpha=6000.0, rm=rm,
                                            pedestal=0.04,
                                            initial=initial),
            rm=rm, s=args.s, f=0.5, delta_max=0.002, lam=1.2e6,
            duration=40.0, emulate_duration=10.0)
        tputs = [units.to_mbps(x) for x in con.two_flow.throughputs()]
        print(f"Theorem 1 (case {con.case}): C1/C2 = "
              f"{units.to_mbps(con.pair.c1.link_rate):.1f}/"
              f"{units.to_mbps(con.pair.c2.link_rate):.1f} Mbit/s, "
              f"D = {con.jitter_bound * 1e3:.1f} ms")
        print(f"two-flow throughputs {tputs[0]:.1f} / {tputs[1]:.1f} "
              f"Mbit/s -> ratio {con.achieved_ratio:.1f} "
              f"(target s = {args.s})")
    elif args.number == 2:
        con = construct_underutilization(
            lambda: WindowTargetCCA(alpha=6000.0, rm=rm, pedestal=0.04,
                                    initial=0.6e6),
            small_rate=1.2e6, rm=rm, jitter_bound=0.05,
            big_rate_factor=100.0, duration=25.0)
        print(f"Theorem 2: utilization {con.utilization:.4f} on a "
              f"{units.to_mbps(con.big_rate):.0f} Mbit/s link "
              f"({con.starved_factor:.0f}x capacity wasted)")
    else:  # argparse's choices leave only 3
        con = construct_strong_model_starvation(
            lambda: WindowTargetCCA(alpha=6000.0, rm=rm, pedestal=0.04,
                                    initial=0.6e6),
            base_rate=1.2e6, rm=rm, s=args.s, duration=25.0)
        print(f"Theorem 3: D = {con.jitter_bound * 1e3:.1f} ms, "
              f"{len(con.traces)} traces, consecutive ratio "
              f"{con.ratio:.1f} >= s = {args.s}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Starvation in End-to-End Congestion Control "
                    "(SIGCOMM 2022) — reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a dumbbell scenario")
    run_parser.add_argument("--rate", type=float, default=None,
                            help="bottleneck rate, Mbit/s")
    run_parser.add_argument("--rm", type=float, default=None,
                            help="propagation RTT, ms")
    run_parser.add_argument("--cca", action="append",
                            help="flow spec: name[:modifier]; repeatable")
    run_parser.add_argument(
        "--spec", action="append", metavar="FILE",
        help="run a serialized ScenarioSpec JSON file instead of "
             "--rate/--rm/--cca flags; repeatable")
    run_parser.add_argument(
        "--topology", default=None, metavar="FILE",
        help="run over a TopologySpec JSON graph instead of the "
             "single dumbbell bottleneck; --cca flows route over "
             "every link in declaration order (link rates and "
             "per-link elements come from the file)")
    run_parser.add_argument(
        "--dump-spec", action="store_true",
        help="print the assembled ScenarioSpec JSON and exit "
             "without running")
    run_parser.add_argument(
        "--duration", type=float, default=None,
        help="run length in seconds (default: the spec's embedded "
             "duration, else 30)")
    run_parser.add_argument(
        "--seed", type=int, default=None,
        help="scenario root seed; every component RNG derives from it "
             "(default 0, or the spec file's embedded seed)")
    _add_pool_flags(run_parser, "scenarios")
    run_parser.add_argument(
        "--buffer-bdp", type=float, default=4.0,
        help="droptail buffer as a multiple of the BDP (default 4; "
             "pass 0 for an unbounded buffer)")
    run_parser.add_argument(
        "--link-blackout", action="append", metavar="START-END",
        help="shared-bottleneck outage window in seconds; repeatable")
    run_parser.add_argument(
        "--link-flap", metavar="PERIOD-DOWN",
        help="flap the bottleneck: every PERIOD s, down for DOWN s")
    run_parser.add_argument(
        "--link-ge", type=float, metavar="LOSS",
        help="Gilbert-Elliott bursty loss on the bottleneck, mean rate")
    run_parser.add_argument(
        "--max-events", type=int, default=None,
        help="abort the run after this many engine events (watchdog)")
    _add_cache_flags(run_parser)
    _add_robustness_flags(run_parser)
    run_parser.set_defaults(func=cmd_run)

    sweep_parser = sub.add_parser("sweep",
                                  help="rate-delay curve (Figure 3)")
    _add_sweep_args(sweep_parser)
    _add_grid_flags(sweep_parser, "point", "abort the sweep")
    sweep_parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="JSON file of failed points; without --cache-dir, "
             "completed points are stored in PATH.store and a "
             "re-invocation serves them from there")
    sweep_parser.add_argument(
        "--retry-failures", action="store_true",
        help="re-run checkpointed failed points (e.g. after raising "
             "--max-events) instead of keeping their failure records")
    sweep_parser.set_defaults(func=cmd_sweep)

    matrix_parser = sub.add_parser(
        "matrix",
        help="per-CCA-pair fairness/starvation competition matrix")
    _add_matrix_args(matrix_parser)
    _add_grid_flags(matrix_parser, "pair", "abort")
    matrix_parser.set_defaults(func=cmd_matrix)

    starve_parser = sub.add_parser(
        "starve", help="run Section 5 starvation scenarios")
    starve_parser.add_argument("scenario", nargs="+",
                               choices=sorted(starvation.SCENARIOS))
    _add_pool_flags(starve_parser, "scenarios")
    _add_cache_flags(starve_parser)
    _add_robustness_flags(starve_parser)
    starve_parser.set_defaults(func=cmd_starve)

    cache_parser = sub.add_parser(
        "cache", help="inspect/maintain a content-addressed result store")
    cache_parser.add_argument(
        "action", choices=["stats", "ls", "gc", "verify"],
        help="stats: totals and hit rate; ls: list entries; gc: remove "
             "corrupt entries and temp files; verify: integrity check "
             "(exit 1 if anything is flagged)")
    cache_parser.add_argument(
        "--cache-dir", default=os.environ.get("REPRO_CACHE_DIR"),
        metavar="DIR", help="store root (default: $REPRO_CACHE_DIR)")
    cache_parser.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="gc: also remove entries not used (catalog hit/store) "
             "for more than DAYS days")
    cache_parser.add_argument(
        "--max-bytes", type=float, default=None, metavar="N",
        help="gc: after age expiry, evict least-recently-used entries "
             "until the store holds at most N bytes")
    cache_parser.add_argument(
        "--repair", action="store_true",
        help="verify: quarantine corrupt objects and orphaned temp "
             "files under quarantine/, reseal the catalog, and "
             "rebuild the last-use index (exit 0 once clean)")
    cache_parser.set_defaults(func=cmd_cache)

    serve_parser = sub.add_parser(
        "serve",
        help="run the sweep-service daemon (async job queue + HTTP "
             "API over a shared result store)")
    serve_parser.add_argument(
        "--job-dir", required=True, metavar="DIR",
        help="durable per-job state; a restarted daemon resumes the "
             "queue found here (one daemon per directory)")
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)")
    serve_parser.add_argument(
        "--port", type=int, default=8642,
        help="bind port (default 8642; 0 picks an ephemeral port)")
    serve_parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes per executing job (default: serial)")
    _add_budget_flags(serve_parser, "point", "fail a job")
    serve_parser.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="executions a job may start before a restart that finds "
             "it orphaned dead-letters it (default 3)")
    serve_parser.add_argument(
        "--chaos", default=None, metavar="SPEC.json",
        help="arm deterministic fault injection from a ChaosPolicy "
             "JSON spec (seeded; see docs/ROBUSTNESS.md)")
    serve_parser.add_argument(
        "--verbose", action="store_true",
        help="log every HTTP request to stderr")
    _add_cache_flags(serve_parser)
    _add_robustness_flags(serve_parser)
    serve_parser.set_defaults(func=cmd_serve)

    submit_parser = sub.add_parser(
        "submit",
        help="run an experiment through a sweep-service daemon "
             "(results byte-identical to running it locally)")
    submit_sub = submit_parser.add_subparsers(dest="kind",
                                              required=True)
    for kind, kind_help, add_experiment_args in (
            ("sweep", "submit a rate-delay sweep grid", _add_sweep_args),
            ("matrix", "submit a competition matrix", _add_matrix_args)):
        kind_parser = submit_sub.add_parser(kind, help=kind_help)
        add_experiment_args(kind_parser)
        _add_client_flags(kind_parser, 600.0,
                          "seconds to wait for completion")
        kind_parser.add_argument(
            "--no-wait", action="store_true",
            help="just queue the job and print its id; fetch later "
                 "with 'repro jobs ID'")
        kind_parser.add_argument(
            "--json", default=None, metavar="PATH",
            help="write the result document to PATH instead of stdout")
        kind_parser.set_defaults(func=cmd_submit)

    jobs_parser = sub.add_parser(
        "jobs", help="list, inspect, or cancel sweep-service jobs")
    jobs_parser.add_argument(
        "job_id", nargs="?", default=None, metavar="JOB_ID",
        help="show one job's snapshot instead of the queue listing")
    _add_client_flags(jobs_parser, 30.0,
                      "per-request timeout in seconds")
    jobs_parser.add_argument(
        "--state", default=None, metavar="STATE",
        choices=["queued", "running", "done", "failed", "cancelled",
                 "dead"],
        help="listing only: restrict to jobs in STATE (e.g. 'dead' "
             "for the dead-letter queue)")
    jobs_parser.add_argument(
        "--events", action="store_true",
        help="print the job's NDJSON progress events")
    jobs_parser.add_argument(
        "--since", type=int, default=0, metavar="SEQ",
        help="with --events: only events with seq >= SEQ")
    jobs_parser.add_argument(
        "--cancel", action="store_true",
        help="cancel the job (immediate when queued, cooperative "
             "when running)")
    jobs_parser.set_defaults(func=cmd_jobs)

    replay_parser = sub.add_parser(
        "replay",
        help="re-run the exact point captured in a crash bundle")
    replay_parser.add_argument(
        "bundle", metavar="BUNDLE",
        help="crash bundle JSON written by a --crash-dir run")
    replay_parser.add_argument(
        "--strict", action="store_true",
        help="shorthand for --invariants strict: the sentinel raises "
             "on the first violated invariant during the replay")
    replay_parser.add_argument(
        "--invariants", choices=["off", "warn", "strict"], default=None,
        help="force the invariant sentinel mode for the replay "
             "(default: the bundle's environment semantics)")
    replay_parser.add_argument(
        "--budget-scale", type=float, default=1.0, metavar="X",
        help="multiply the recorded event/wall budgets by X, to "
             "distinguish a divergent point from one that merely ran "
             "out of headroom (default 1)")
    replay_parser.set_defaults(func=cmd_replay)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="fuzz random scenarios through the invariant/differential "
             "oracle battery")
    fuzz_parser.add_argument(
        "--iterations", type=int, default=50, metavar="N",
        help="scenarios to generate and test (default 50)")
    fuzz_parser.add_argument(
        "--seed", type=int, default=1,
        help="campaign root seed; iteration i is a pure function of "
             "(seed, i), so a campaign is fully reproducible "
             "(default 1)")
    fuzz_parser.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop accepting new iterations after this much wall time "
             "(trades determinism for a bounded run; default: none)")
    fuzz_parser.add_argument(
        "--corpus-dir", default=None, metavar="DIR",
        help="corpus of minimized findings: known signatures found "
             "there don't fail the run, fresh findings are minimized "
             "and written there as regression entries")
    fuzz_parser.add_argument(
        "--jobs", type=int, default=None,
        help="fan iterations out over N self-healing worker processes")
    fuzz_parser.add_argument(
        "--crash-dir", default=os.environ.get("REPRO_CRASH_DIR"),
        metavar="DIR",
        help="capture a reproducible crash bundle per fresh finding "
             "('repro replay' re-runs it; default: $REPRO_CRASH_DIR)")
    fuzz_parser.add_argument(
        "--max-events", type=int, default=2_000_000,
        help="per-iteration engine event budget (default 2M)")
    fuzz_parser.add_argument(
        "--max-flows", type=int, default=16,
        help="most flows a generated scenario may have (default 16)")
    fuzz_parser.add_argument(
        "--no-differential", action="store_true",
        help="skip the serial-vs-pool battery identity cross-check")
    fuzz_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full campaign report as JSON")
    fuzz_parser.add_argument(
        "--verbose", action="store_true",
        help="print per-iteration progress to stderr")
    fuzz_parser.set_defaults(func=cmd_fuzz)

    theorem_parser = sub.add_parser(
        "theorem", help="run a theorem construction on the fluid model")
    theorem_parser.add_argument("number", type=int, choices=[1, 2, 3])
    theorem_parser.add_argument("--s", type=float, default=10.0,
                                help="target unfairness ratio")
    theorem_parser.set_defaults(func=cmd_theorem)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one verb. A :class:`~repro.errors.ReproError` that escapes it
    (a bad input, an unreachable daemon) exits 1 with one line naming
    the verb, never a traceback."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        raise SystemExit(f"repro {args.command}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
