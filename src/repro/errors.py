"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything this package raises with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A scenario, topology, or CCA was configured with invalid parameters."""


class SpecValidationError(ConfigurationError):
    """A declarative spec carried a non-finite or out-of-range value.

    Raised by the :mod:`repro.spec` constructors (and therefore by
    every ``from_json`` path) when a rate, delay, or duration is NaN,
    infinite, negative, or not a number at all. Failing at spec
    construction — instead of building a simulation that misbehaves
    mid-run — is what lets the scenario fuzzer treat "valid spec" as
    a guarantee of "clean run": anything the validators accept must
    either run to completion or expose a real simulator bug.
    """


class SweepAbortedError(ReproError):
    """A resilient sweep hit its ``max_failures`` fail-fast threshold.

    Raised by :class:`repro.analysis.harness.ResilientSweep` when more
    grid points have failed than the configured threshold allows — a
    sweep that is mostly quarantining points is better stopped with a
    clear error than ground to the end. Every completed point is
    already in the result store and every failure in the checkpoint's
    failure records (``<checkpoint>.store`` holds the results when no
    store was given), so a resume with a fixed setup re-runs nothing
    that finished.

    Attributes:
        failures: the :class:`~repro.analysis.harness.RunFailure`
            records accumulated when the threshold tripped.
    """

    def __init__(self, message: str, failures: list | None = None) -> None:
        super().__init__(message)
        self.failures = failures if failures is not None else []


class ServiceError(ReproError):
    """A sweep-service request failed (HTTP error or bad job spec).

    Raised by :class:`repro.service.client.ServiceClient` when the
    daemon answers with a non-2xx status, and by
    :mod:`repro.service.jobs` when a submitted document is malformed
    or its values do not compile.

    Attributes:
        status: the HTTP status code (0 when the failure happened
            before a response arrived, e.g. connection refused).
        retry_after: the server's ``Retry-After`` hint in seconds, when
            the error response carried one (otherwise None). The
            client's retry loop prefers this over its own backoff.
    """

    def __init__(self, message: str, status: int = 0,
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class SimulationError(ReproError):
    """The simulator reached an internally inconsistent state."""


class BudgetExceededError(SimulationError):
    """A watchdog budget (events, simulated time, or wall clock) ran out.

    Raised by :meth:`repro.sim.engine.Simulator.run` when a run exceeds
    its event-count or wall-clock budget — typically a livelocked CCA
    event loop or a runaway queue. The resilient sweep harness catches
    this and records the grid point as a failure instead of hanging.

    Attributes:
        kind: which budget ran out ("events" or "wall_clock").
        limit: the configured budget.
        value: the measured consumption when the watchdog fired.
        sim_time: simulation clock when the watchdog fired.
    """

    def __init__(self, message: str, kind: str, limit: float,
                 value: float, sim_time: float | None = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.limit = limit
        self.value = value
        self.sim_time = sim_time


class InvariantViolation(SimulationError):
    """A runtime invariant check failed (sentinel in ``strict`` mode).

    Raised by :class:`repro.sim.invariants.InvariantSentinel` when a
    conservation, causality, or sanity invariant is violated during a
    run. In ``warn`` mode the same condition emits an
    :class:`repro.sim.invariants.InvariantWarning` instead.

    Attributes:
        kind: invariant family ("conservation", "causality", "sanity").
        sim_time: simulation clock when the check fired.
        details: structured context captured at violation time — the
            offending values plus a tail of the recorder traces — used
            by crash bundles for post-mortem analysis.
    """

    def __init__(self, message: str, kind: str = "sanity",
                 sim_time: float | None = None,
                 details: dict | None = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.sim_time = sim_time
        self.details = details if details is not None else {}


class EmulationInfeasibleError(ReproError):
    """The Theorem 1 delay-emulation constraints cannot be satisfied.

    Raised when the required non-congestive delay for some flow falls
    outside ``[0, D]`` at some time, i.e. the adversary cannot reproduce
    the single-flow delay trajectories in the two-flow scenario.
    """

    def __init__(self, message: str, time: float | None = None,
                 required_delay: float | None = None) -> None:
        super().__init__(message)
        self.time = time
        self.required_delay = required_delay


class ConvergenceError(ReproError):
    """A trajectory did not satisfy the delay-convergence definition."""
