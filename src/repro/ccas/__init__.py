"""Congestion control algorithms for the packet-level simulator.

The package exports the base classes. Each CCA is a module of its own,
built by its :mod:`~repro.ccas.registry` name, which imports the module
on first use; the paper's two classes of CCA are lists of those names.
"""

from .base import CCA, RateCCA, WindowCCA

#: Registry names of the delay-convergent CCAs (subject to Theorem 1).
DELAY_CONVERGENT = ("vegas", "fast", "copa", "bbr", "vivace", "ledbat",
                    "jitter-aware", "verus")

#: Registry names of the loss-based CCAs (Section 5.4 analysis).
LOSS_BASED = ("reno", "cubic", "allegro")

__all__ = ["CCA", "DELAY_CONVERGENT", "LOSS_BASED", "RateCCA",
           "WindowCCA"]
