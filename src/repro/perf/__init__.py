"""Performance subsystem: golden traces.

:mod:`repro.perf.golden` is the deterministic digest capture behind the
golden-trace guard (``tests/test_golden_traces.py``): every hot-path
optimization must reproduce the recorded digests bit for bit. Timing
lives outside the package, in the repo benchmark (``python3
bench/run.py``, see ``bench/README.md``); for a profile, run the CLI
under the stdlib profiler: ``python -m cProfile -s cumulative
[-o p.pstats] -m repro.cli run ...``.
"""
