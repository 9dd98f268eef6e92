"""Tests for trace export (repro.analysis.traces)."""

import os

import numpy as np
import pytest

from repro import units
from repro.analysis.traces import (export_run_tsv, flow_arrays,
                                   queue_arrays, write_tsv)


def test_flow_arrays_shapes(run):
    arrays = flow_arrays(run.scenario.flows[0].recorder)
    assert len(arrays["rtt_times"]) == len(arrays["rtt_values"])
    assert len(arrays["sample_times"]) == len(arrays["cwnd_values"])
    assert len(arrays["rate_values"]) == len(arrays["sample_times"])


def test_rate_derivative_near_link_rate(run):
    arrays = flow_arrays(run.scenario.flows[0].recorder)
    tail = arrays["rate_values"][len(arrays["rate_values"]) // 2:]
    assert np.nanmean(tail) == pytest.approx(units.mbps(12), rel=0.1)


def test_queue_arrays(run):
    arrays = queue_arrays(run.scenario.queue_recorder)
    assert (arrays["backlog_bytes"] >= 0).all()


def test_write_tsv_roundtrip(tmp_path):
    path = tmp_path / "out.tsv"
    write_tsv(str(path), {"a": np.array([1.0, 2.0]),
                          "b": np.array([3.0, 4.0])})
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "a\tb"
    assert lines[1] == "1\t3"


def test_write_tsv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_tsv(str(tmp_path / "x.tsv"),
                  {"a": np.array([1.0]), "b": np.array([1.0, 2.0])})


def test_arrays_survive_the_store(run, tmp_path):
    """Trace arrays serialized into the result store come back exact.

    flow_arrays output is float64 from plain Python floats, so a JSON
    round-trip through the content-addressed store must be lossless —
    this is what makes cached and live runs byte-identical downstream.
    """
    from repro.store import ResultStore, cache_key

    arrays = flow_arrays(run.scenario.flows[0].recorder)
    payload = {name: arrays[name].tolist()
               for name in ("rtt_times", "rtt_values", "sample_times",
                            "cwnd_values", "delivered_values")}
    store = ResultStore(str(tmp_path / "cache"))
    key = cache_key("trace", {"run": "v"})
    store.put(key, payload)
    fetched = store.get(key)
    for name, values in payload.items():
        assert fetched[name] == values
        assert np.array_equal(np.asarray(fetched[name], dtype=float),
                              arrays[name])


def test_export_run_tsv(run, tmp_path):
    written = export_run_tsv(run, str(tmp_path), prefix="demo")
    assert set(written) == {"v:rtt", "v:cwnd", "queue"}
    for path in written.values():
        assert os.path.exists(path)
        with open(path) as handle:
            header = handle.readline()
            assert "\t" in header or header.strip()
