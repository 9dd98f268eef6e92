#!/usr/bin/env python3
"""Sweep service end to end: daemon, submit, warm resubmit, shared store.

The service turns the content-addressed result store into a shared
compute resource: one daemon owns the worker pool and the job queue,
any number of clients submit declarative jobs over HTTP and fetch
results byte-identical to running the experiment locally. This demo
runs the whole loop in one process (daemon on an ephemeral port):

1. cold submit — the daemon simulates a small Vegas rate-delay grid;
2. byte-identity — the fetched document equals a local
   ``sweep_rate_delay`` run of the same parameters, byte for byte;
3. warm resubmit — the same spec again: zero simulations, every point
   a catalog hit read before dispatch, the worker pool never started;
4. shared store — a *local* sweep against the same cache directory is
   served from the points the daemon computed.

Run:  python examples/sweep_service_demo.py
"""

import json
import tempfile
from pathlib import Path

from repro import units
from repro.analysis.sweep import sweep_rate_delay
from repro.service import (JobSpec, ServiceClient, SweepService,
                           render_result, serve_background)
from repro.store import ResultStore

RATES = [2.0, 8.0, 32.0]
RM_MS = 40.0
DURATION = 4.0
SEED = 7


def main():
    root = Path(tempfile.mkdtemp(prefix="repro-service-demo-"))
    store = ResultStore(str(root / "cache"))
    service = SweepService(str(root / "jobs"), store, jobs=2)
    server = serve_background(service)
    client = ServiceClient(f"http://127.0.0.1:{server.port}")
    print(f"daemon up on port {server.port} "
          f"(job dir {root / 'jobs'})\n")

    spec = JobSpec.sweep("vegas", RATES, RM_MS, duration=DURATION,
                         seed=SEED)

    print("1. cold submit ...")
    raw = client.submit_and_wait(spec, timeout=300)
    job = client.jobs()[0]
    print(f"   job {job['id']}: {job['state']}, "
          f"progress {job['progress']}")

    print("2. byte-identity vs a local run ...")
    curve = sweep_rate_delay("vegas", RATES, units.ms(RM_MS),
                             duration=DURATION, seed=SEED)
    local = render_result(curve.to_json()).encode()
    assert raw == local, "service and local bytes diverged"
    print(f"   identical: {len(raw)} bytes either way")

    print("3. warm resubmit ...")
    warm_raw = client.submit_and_wait(spec, timeout=60)
    warm = client.job(job["id"])
    assert warm["warm"], "expected every point to be a store hit"
    assert warm["progress"]["cached"] == len(RATES)
    assert warm_raw == raw
    counts = client.stats()["store"]["events"]
    print(f"   warm=True, {warm['progress']['cached']} point(s) from "
          f"cache; catalog {counts}")

    print("4. a local sweep shares the daemon's store ...")
    shared = sweep_rate_delay("vegas", RATES, units.ms(RM_MS),
                              duration=DURATION, seed=SEED,
                              store=store)
    assert shared.cache == {"hits": len(RATES), "misses": 0}
    print(f"   local run: {shared.cache['hits']} hit(s), "
          f"0 simulations")

    for point in json.loads(raw)["points"]:
        print(f"   {point['link_rate'] * 8e-6:6.1f} Mbit/s  "
              f"d_min {point['d_min'] * 1e3:6.2f} ms  "
              f"d_max {point['d_max'] * 1e3:6.2f} ms")

    server.close()
    print("\ndaemon stopped; job state persists under "
          f"{root / 'jobs'}")


if __name__ == "__main__":
    main()
