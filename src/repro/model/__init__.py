"""Fluid-flow analytical model of the paper's Section 3 network."""

from .cca import FluidAimd, FluidCCA, FluidJitterAware, OscillatingCCA
from .fluid import (Trajectory, TwoFlowResult, run_ideal_path,
                    run_shared_queue)

__all__ = [
    "FluidAimd", "FluidCCA", "FluidJitterAware", "OscillatingCCA",
    "Trajectory", "TwoFlowResult", "run_ideal_path", "run_shared_queue",
]
