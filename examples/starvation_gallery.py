#!/usr/bin/env python3
"""The Section 5 starvation gallery: all four empirical demonstrations.

Reproduces, in one script, every emulator experiment from the paper's
Section 5:

* 5.1  Copa:   one packet with an RTT 1 ms under Rm poisons the min-RTT
               filter (paper: 8.8 vs 95 Mbit/s).
* 5.2  BBR:    two flows with Rm 40/80 ms fall into cwnd-limited mode
               and the small-Rm flow starves (paper: 8.3 vs 107).
* 5.3  Vivace: ACK aggregation at 60 ms boundaries fakes positive RTT
               gradients (paper: 9.9 vs 99.4).
* 5.4  Allegro: 2% random loss on one flow only (paper: 10.3 vs 99.1).

Pass ``--quick`` to run scaled-down versions (lower rates / shorter
runs, same shapes) in a few seconds each.

Run:  python examples/starvation_gallery.py [--quick]
"""

import argparse
import time

from repro.analysis.report import describe_run
from repro.analysis.starvation import SCENARIOS

#: (``repro starve`` name, heading, paper's numbers, ``--quick``
#: overrides). At 24 Mbit/s a 1 ms error caps Copa's target right at
#: the link rate, so the quick run deepens the poisoning to 5 ms to
#: keep the paper's shape visible.
GALLERY = [
    ("copa", "5.1 Copa (min-RTT poisoning)", "8.8 vs 95 Mbit/s",
     {"rate_mbps": 24, "poison_ms": 5.0, "duration": 20.0}),
    ("bbr", "5.2 BBR (RTT 40 vs 80 ms)", "8.3 vs 107 Mbit/s",
     {"rate_mbps": 24, "duration": 30.0}),
    ("vivace", "5.3 Vivace (60 ms ACK aggregation)", "9.9 vs 99.4 Mbit/s",
     {"rate_mbps": 24, "duration": 30.0}),
    ("allegro", "5.4 Allegro (2% loss on one flow)", "10.3 vs 99.1 Mbit/s",
     {"rate_mbps": 120, "duration": 40.0}),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down runs (seconds, not minutes)")
    args = parser.parse_args()

    for name, title, paper, quick in GALLERY:
        start = time.time()
        result = SCENARIOS[name](**(quick if args.quick else {}))
        elapsed = time.time() - start
        print(describe_run(title, result,
                           paper_numbers=f"{paper} (Mahimahi)"))
        print(f"  [simulated in {elapsed:.0f}s wall time]")
        print()


if __name__ == "__main__":
    main()
