"""Scenario fuzzing: random specs, oracle battery, shrinking, corpus.

The correctness flywheel (see docs/ROBUSTNESS.md): a seeded generator
samples valid-by-construction :class:`~repro.spec.ScenarioSpec`s, an
oracle battery checks each one (strict invariants, run-twice
determinism, serial-vs-pool identity, cache-key stability, JSON round
trip), a delta-debugging shrinker minimizes whatever fails, and the
corpus turns every minimized finding into a committed regression test.
Entry points: :func:`run_fuzz` (the ``repro fuzz`` CLI body) and
:func:`run_battery` (one spec through every oracle).
"""

from .corpus import (CORPUS_VERSION, CorpusEntry, check_entry,
                     known_signatures, load_corpus, load_entry,
                     write_entry)
from .driver import (DEFAULT_BUDGET, FuzzFinding, FuzzReport, run_fuzz)
from .generate import (DEFAULT_CONFIG, FuzzConfig, describe_space,
                       generate_spec)
from .oracles import (BatteryResult, Finding, OracleFailure,
                      battery_params, fuzz_battery_point,
                      normalize_component, run_battery)
from .shrink import ShrinkResult, reproduces, shrink_spec

__all__ = [
    "BatteryResult", "CORPUS_VERSION", "CorpusEntry", "DEFAULT_BUDGET",
    "DEFAULT_CONFIG", "Finding", "FuzzConfig", "FuzzFinding",
    "FuzzReport", "OracleFailure", "ShrinkResult", "battery_params",
    "check_entry", "describe_space", "fuzz_battery_point",
    "generate_spec", "known_signatures",
    "load_corpus", "load_entry", "normalize_component", "reproduces",
    "run_battery", "run_fuzz", "shrink_spec", "write_entry",
]
