"""Figure 3: rate-delay graphs for Vegas/FAST, Copa, BBR, PCC Vivace.

For each CCA, sweep the bottleneck rate (log grid) at a fixed Rm and
measure the equilibrium RTT range in the packet simulator. The shapes to
reproduce (paper Figure 3, Rm = 100 ms there; we use 50 ms to keep runs
affordable — the shapes are Rm-relative):

* Vegas & FAST: RTT = Rm + n*alpha/C, a thin line collapsing onto Rm.
* Copa: same 1/C shape with a ~4-packet-wide band.
* BBR (pacing mode): a band [Rm, ~1.25 Rm] independent of C.
* PCC Vivace: a thin band just above Rm ([Rm, 1.05 Rm]).
"""


from conftest import report
from repro import units
from repro.analysis.harness import RunBudget
from repro.analysis.report import rate_delay_ascii
from repro.analysis.sweep import sweep_rate_delay
from repro.spec import CCASpec

RM = units.ms(50)
GRID = [0.4, 2.0, 10.0, 50.0]   # Mbit/s, log-ish spacing

# Resilient-harness budget: one divergent CCA run is recorded on the
# curve instead of hanging the whole panel. The limits are far above
# anything a healthy run needs (~1.5M events at 50 Mbit/s x 20 s).
BUDGET = RunBudget(max_events=30_000_000, wall_clock=300.0)


def run_sweeps():
    def sweep(cca, label, duration=None):
        return sweep_rate_delay(cca, GRID, RM, label=label,
                                duration=duration, budget=BUDGET)

    curves = {}
    curves["Vegas"] = sweep("vegas", "Vegas")
    curves["FAST"] = sweep("fast", "FAST")
    # Copa's velocity mechanism hunts for several seconds at high BDP;
    # give it a longer settling run than the default.
    curves["Copa"] = sweep("copa", "Copa", duration=30.0)
    # BBR's bandwidth probing recovers from a premature full-pipe
    # signal at ~25% per gain cycle; give it time to finish ramping.
    curves["BBR"] = sweep(CCASpec("bbr", {"seed": 3}), "BBR (pacing)",
                          duration=20.0)
    curves["Vivace"] = sweep("vivace", "Vivace")
    return curves


def test_fig3_rate_delay_real_ccas(once):
    curves = once(run_sweeps)
    lines = []
    for name, curve in curves.items():
        lines.append(rate_delay_ascii(curve))
        lines.append("")
    report("Figure 3: measured rate-delay curves (Rm = 50 ms)", lines)

    # The harness must not have had to drop any grid point.
    for name, curve in curves.items():
        assert not curve.failures, (name, curve.failures)
        assert len(curve.points) == len(GRID), name

    mss = 1500

    # Vegas/FAST: d_max ~ Rm + (alpha+1)/C and shrinking with C.
    for name in ("Vegas", "FAST"):
        points = curves[name].points
        for p in points:
            assert p.d_max < RM + 8 * mss / p.link_rate, name
        assert points[0].d_max > points[-1].d_max

    # Copa: 1/C-shaped band, wider than Vegas but still O(packets/C)
    # plus a velocity-oscillation ripple bounded by a fraction of Rm.
    for p in curves["Copa"].points:
        assert p.d_max < RM + 40 * mss / p.link_rate + 0.3 * RM

    # BBR pacing mode: delay band tied to Rm, not to 1/C.
    bbr_points = curves["BBR"].points
    fast_link = bbr_points[-1]
    assert fast_link.d_max < 1.7 * RM
    assert fast_link.d_max > RM

    # Vivace: stays within a whisker of Rm at high rates.
    vivace_fast = curves["Vivace"].points[-1]
    assert vivace_fast.d_max < 1.35 * RM

    # Every CCA utilizes reasonably across the grid (f-efficiency).
    for name, curve in curves.items():
        assert curve.worst_utilization() > 0.5, name

    # Cross-CCA shape: at the fastest link, Vegas's delta is (near) the
    # smallest, BBR's band the widest — the paper's delta_max ordering.
    deltas = {name: curve.points[-1].delta
              for name, curve in curves.items()}
    assert deltas["Vegas"] <= deltas["BBR"] + 1e-6
