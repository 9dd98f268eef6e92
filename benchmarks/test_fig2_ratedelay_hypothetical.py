"""Figure 2: rate-delay graph of a hypothetical delay-convergent CCA.

Sweeps the ideal path's link rate C at fixed Rm and plots the
equilibrium RTT range. The shape to reproduce: d_max(C) and d_min(C)
are decreasing in C and flatten toward Rm, with delay rising sharply as
C -> 0 (a transmission delay of 1/C is unavoidable).
"""

from conftest import report
from repro import units
from repro.core.convergence import ConvergenceCertificate, measure_cca_range
from repro.model.cca import WindowTargetCCA

RM = 0.05
RATES_MBPS = [0.5, 1, 2, 4, 8, 16, 32, 64]
ALPHA = 9000.0
#: Definition 1's lambda: every measured rate lies above it.
LAMBDA = units.mbps(0.25)


def generate():
    measured = []
    for rate_mbps in RATES_MBPS:
        rate = units.mbps(rate_mbps)
        measured.append(measure_cca_range(
            lambda: WindowTargetCCA(alpha=ALPHA, rm=RM, pedestal=0.0,
                                    initial=rate / 2),
            link_rate=rate, rm=RM, duration=30.0))
    return measured


def test_fig2_rate_delay_hypothetical(once):
    measured = once(generate)
    # Definition 1 over the measured ranges: above lambda the map's
    # d_max(C) = Rm + alpha / C stays below Rm + alpha / lambda, and
    # delta(C) below the 10 ms asserted by hand at the end.
    certificate = ConvergenceCertificate(
        ranges=measured, lam=LAMBDA, d_max_bound=RM + ALPHA / LAMBDA,
        delta_bound=0.01)
    lines = ["link rate -> equilibrium RTT range (Rm = 50 ms)"]
    for rate_mbps, m in zip(RATES_MBPS, measured):
        lines.append(f"C = {rate_mbps:6.1f} Mbit/s : "
                     f"[{m.d_min * 1e3:7.2f}, {m.d_max * 1e3:7.2f}] ms "
                     f"(delta = {m.delta * 1e3:.3f} ms)")
    lines.append(f"Definition 1: delay-convergent "
                 f"{certificate.is_delay_convergent} above lambda = "
                 f"{units.to_mbps(LAMBDA):g} Mbit/s, delta_max = "
                 f"{certificate.delta_max * 1e3:.3f} ms")
    report("Figure 2: rate-delay graph (hypothetical CCA)", lines)

    d_maxes = [m.d_max for m in measured]
    # Decreasing in C...
    assert all(a >= b - 1e-9 for a, b in zip(d_maxes, d_maxes[1:]))
    # ...flattening toward Rm at high rates...
    assert d_maxes[-1] < RM * 1.05
    # ...and clearly elevated at the lowest rate (alpha/C term).
    assert d_maxes[0] > RM + ALPHA / units.mbps(0.5) * 0.5
    # Bounded delta at every rate (Definition 1's second condition).
    assert max(m.delta for m in measured) < 0.01
    assert certificate.is_delay_convergent
