"""Checks on the benchmark itself. Run with ``pytest bench/``.

Outside tier-1's ``testpaths`` on purpose: the smoke run takes about a
minute and measures nothing.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibrate import calibrate, spin, steadiness  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run_bench(*argv: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    script = os.path.join(cwd, "bench", "run.py")
    return subprocess.run([sys.executable, script, *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def results(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


@pytest.fixture(scope="module")
def smoke() -> subprocess.CompletedProcess:
    return run_bench("--smoke")


def test_contract_names_and_bounds() -> None:
    assert CONTRACT["paths"] == ["bench"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in CONTRACT[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert bounds["pass_cal_ms"] <= 0.10
    assert all("bound" not in m for m in CONTRACT["per_layer"])


def test_smoke_passes_every_check(smoke) -> None:
    assert smoke.returncode == 0, smoke.stdout[-2000:] + smoke.stderr
    docs = results(smoke.stdout)
    assert len(docs) == 2 * len(WORKLOADS)
    for doc in docs:
        assert doc["correct"] and doc["failed"] == 0
        assert doc["attempted"] >= 1


def test_smoke_prints_every_metric_with_its_unit(smoke) -> None:
    untraced = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    traced = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    docs = results(smoke.stdout)
    for i, workload in enumerate(WORKLOADS):
        for declared, doc in ((untraced, docs[2 * i]),
                              (traced, docs[2 * i + 1])):
            assert set(doc["metrics"]) == set(declared)
            for name, unit in declared.items():
                assert doc["metrics"][name]["unit"] == unit
                assert re.search(
                    rf"^{workload}\s+{re.escape(name)}\s+-?[0-9.]+\s+"
                    rf"{re.escape(unit)}(\s|$)", smoke.stdout, re.M), name
        assert all(entry["value"] > 0
                   for entry in docs[2 * i]["metrics"].values())


def test_every_layer_metric_is_taken_somewhere(smoke) -> None:
    taken = set()
    for doc in results(smoke.stdout)[1::2]:
        taken |= {name for name, entry in doc["metrics"].items()
                  if entry["value"] != 0}
    # Zero on a healthy host, or a difference of two noisy times.
    may_be_zero = {"bench.unsteady", "sim.host.timeouts"}
    missing = {m["name"] for m in CONTRACT["per_layer"]} - taken
    assert missing <= may_be_zero, missing


def test_trace_files_account_for_the_pass(smoke) -> None:
    for workload in WORKLOADS:
        path = os.path.join(HERE, "out", f"trace-{workload}.json")
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)["summary"]
        ratio = summary["layers_self_ms_sum"] / summary["pass_raw_ms"]
        assert 0.9 <= ratio <= 1.1, (workload, ratio)


def test_corrupt_warm_store_is_a_failed_run() -> None:
    done = run_bench("--workload", "service_warm", "--smoke", "--trace",
                     "0", "--inject", "corrupt-store")
    assert done.returncode == 1, done.stdout[-2000:] + done.stderr
    (doc,) = results(done.stdout)
    assert not doc["correct"] and doc["failed"] > 0
    assert re.search(r"fail_ratio = [1-9]\d*/\d+", done.stdout)


def test_without_the_program_there_is_no_result(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "out", "__pycache__", ".pytest_cache"))
    done = run_bench("--workload", "cli_sweep", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode not in (0, None)
    assert not results(done.stdout)


def test_calibration_rescales_cpu_and_keeps_sleep() -> None:
    sample = calibrate(wall_s=1.0, busy_s=0.25, factor=2.0)
    assert sample.cal == pytest.approx(750.0 + 500.0)
    assert sample.cpu_cal == pytest.approx(500.0)
    assert spin(200) > 0
    assert steadiness([10.0, 10.0, 10.0, 10.0])[2] is False
    assert steadiness([10.0, 14.0, 20.0, 30.0])[2] is True


def test_self_time_subtracts_the_union_of_children() -> None:
    tracer = Tracer()
    with tracer.op_span("root"):
        with tracer.span("a.child"):
            pass
        with tracer.span("b.child"):
            pass
    root, first, second = tracer.spans
    # Make the two children overlap and stick out of the parent.
    root.start, root.end = 0.0, 10.0
    first.start, first.end = 1.0, 5.0
    second.start, second.end = 4.0, 12.0
    self_times = tracer.self_times()
    assert self_times[0] == pytest.approx(10.0 - 9.0)
    assert self_times[1] == pytest.approx(4.0)
    assert self_times[2] == pytest.approx(8.0)
