"""The paper's primary contribution: delay-convergence, starvation theory.

The package re-exports nothing: import the submodule you need
(``from repro.core.fairness import jain_index``). The theory modules
import numpy and :mod:`repro.model`; ``fairness`` and ``ratedelay`` do
not, so the CLI start path can use the Jain index without loading them.

Submodules:
    convergence — Definition 1 measurement/certification.
    fairness    — Definitions 2-4 (s-fairness, starvation, f-efficiency).
    pigeonhole  — Step 1 of Theorem 1 (Figure 4).
    emulation   — Step 3 of Theorem 1 (Equation 5 adversary).
    theorems    — end-to-end constructors for Theorems 1, 2, 3.
    ratedelay   — rate-delay maps and the Section 6.3 figure of merit.
"""
