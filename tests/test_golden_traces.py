"""Golden-trace determinism guard.

``tests/golden_traces.json`` holds content digests of per-flow traces,
summaries, a mini sweep curve, and its cache keys, captured *before*
the hot-path optimization work. This test replays the whole battery and
asserts every digest still matches — i.e. pooling, loop fusion, and the
recorder rewrite are bit-invisible, not just statistically close.

Regenerate the reference only for a deliberate semantic change::

    PYTHONPATH=src python -m tests.golden --write tests/golden_traces.json
"""

import json
from pathlib import Path

import pytest

from repro.spec import ScenarioSpec

from . import golden

GOLDEN_PATH = Path(__file__).parent / "golden_traces.json"


def test_golden_file_is_committed():
    assert GOLDEN_PATH.exists(), (
        "tests/golden_traces.json is missing; regenerate it with "
        "python -m tests.golden --write")


def test_golden_schema_version():
    reference = json.loads(GOLDEN_PATH.read_text())
    assert reference["schema"] == golden.GOLDEN_SCHEMA_VERSION


@pytest.mark.parametrize("name", ["faults/vegas", "faults/duplicate",
                                  "topo/fault_second_hop"])
def test_version_1_fixture_loads_to_the_tables_entry(name):
    """The three scenarios that carried version-1 fault schedules were
    re-keyed by hand in ``golden.py``; their version-1 JSON, dumped at
    the last commit that wrote version 1, must read back as exactly the
    table's entry — pinned seeds included — so the digests below are
    digests of the same scenarios as before."""
    fixture = (Path(__file__).parent / "data" / "spec_v1"
               / (name.replace("/", "_") + ".json"))
    assert json.loads(fixture.read_text())["version"] == 1
    assert ScenarioSpec.load(str(fixture)) \
        == golden.golden_scenarios()[name]


def test_traces_match_committed_golden():
    reference = json.loads(GOLDEN_PATH.read_text())
    current = golden.capture_all()
    problems = golden.compare(current, reference)
    assert not problems, (
        "simulation output diverged from the committed golden traces "
        "(optimizations must be bit-invisible):\n" + "\n".join(problems))


def test_golden_battery_is_invariant_clean_under_strict_sentinel():
    """Every golden scenario passes with the sentinel in strict mode.

    Two guarantees at once: no scenario in the battery violates a
    conservation/causality/sanity invariant (strict raises on the
    first violation), and attaching the sentinel is bit-invisible —
    the digests still match the committed reference captured without
    it.
    """
    from repro.sim.invariants import override_mode
    reference = json.loads(GOLDEN_PATH.read_text())
    with override_mode("strict"):
        current = golden.capture_all()
    problems = golden.compare(current, reference)
    assert not problems, (
        "strict invariant sentinel perturbed the golden traces "
        "(it must schedule no events and mutate nothing):\n"
        + "\n".join(problems))
