"""Performance subsystem: profiling and golden traces.

Two tools keep the simulator's hot path fast and honest (timing lives
outside the package, in the repo benchmark: ``python3 bench/run.py``,
see ``bench/README.md``):

* :mod:`repro.perf.profiling` — a cProfile wrapper behind the
  ``--profile`` flag of ``repro run``/``repro sweep``.
* :mod:`repro.perf.golden` — deterministic digest capture for the
  golden-trace guard (``tests/test_golden_traces.py``): every hot-path
  optimization must reproduce the recorded digests bit for bit.
"""

from .profiling import maybe_profile

__all__ = ["maybe_profile"]
