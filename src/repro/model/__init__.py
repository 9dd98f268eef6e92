"""Fluid-flow analytical model of the paper's Section 3 network: one
engine (``run_shared_queue``) whose one-flow case is the ideal path."""

from .cca import FluidAimd, FluidCCA, FluidJitterAware, OscillatingCCA
from .fluid import (SharedQueueRun, Trajectory, run_ideal_path,
                    run_shared_queue)

__all__ = [
    "FluidAimd", "FluidCCA", "FluidJitterAware", "OscillatingCCA",
    "SharedQueueRun", "Trajectory", "run_ideal_path", "run_shared_queue",
]
