"""BBR (v1-style): model-based control from max-bandwidth / min-RTT filters.

Implements the structure the paper analyzes in Section 5.2:

* **Pacing mode** — pacing_rate = pacing_gain x bandwidth_estimate, with
  the PROBE_BW gain cycle [1.25, 0.75, 1, 1, 1, 1, 1, 1] (one phase per
  min-RTT). Here d_min = Rm, d_max = 1.25 Rm, so delta_max = 0.25 Rm.
* **cwnd-limited mode** — cwnd = 2 x bandwidth_estimate x min_rtt +
  quanta. When ACKs arrive in bursts the max filter overestimates the
  bandwidth, pacing stops binding, and the +quanta term alone creates the
  fixed point rate = quanta / (RTT - 2 Rm) (paper Section 5.2).

The bandwidth estimate is a windowed max (10 rounds) of delivery-rate
samples; min_rtt is a windowed min (10 s) refreshed by PROBE_RTT (cwnd
drops to 4 packets for 200 ms). STARTUP/DRAIN follow the usual 2/ln 2
gain and full-pipe detection (three rounds without 25% growth).

Randomized PROBE_BW phase offsets take a seed so experiments stay
reproducible.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Deque, Optional, Tuple

from ..sim.packet import AckInfo
from .base import CCA

STARTUP_GAIN = 2.885  # 2/ln(2)
PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
BW_WINDOW_ROUNDS = 10
MIN_RTT_WINDOW = 10.0
PROBE_RTT_DURATION = 0.2
PROBE_RTT_CWND_PACKETS = 4


class BBR(CCA):
    """Simplified BBR v1.

    Args:
        quanta_packets: the paper's alpha term added to cwnd (BBR draft's
            "quanta"); setting it to 0 reproduces the degenerate
            any-split fixed point discussed in Section 5.2.
        cwnd_gain: multiplier on BDP for the cwnd cap (2 in BBR v1).
        seed: randomizes the initial PROBE_BW phase (flow
            desynchronization). Any int replays the exact same phase
            sequence; ``None`` draws OS entropy and makes the run
            irreproducible (never the default — scenario specs derive a
            per-flow seed from the root seed instead, see
            :mod:`repro.spec.seeds`).
        enable_probe_rtt: disable to model senders with oracular Rm.
    """

    STARTUP, DRAIN, PROBE_BW, PROBE_RTT = range(4)

    def __init__(self, quanta_packets: float = 3.0, cwnd_gain: float = 2.0,
                 seed: Optional[int] = 0,
                 enable_probe_rtt: bool = True) -> None:
        super().__init__()
        self.quanta_packets = quanta_packets
        self.cwnd_gain = cwnd_gain
        self.enable_probe_rtt = enable_probe_rtt
        self._rng = random.Random(seed)

        self.mode = BBR.STARTUP
        self.pacing_gain = STARTUP_GAIN
        self._cwnd_gain_now = STARTUP_GAIN

        # Windowed max filter: (round, max sample in that round).
        self._bw_samples: Deque[Tuple[int, float]] = deque()
        self.btl_bw: float = 0.0

        # Windowed min filter over wall-clock for min RTT.
        self._rtt_samples: Deque[Tuple[float, float]] = deque()
        self.min_rtt_est: float = math.inf

        self.round_count = 0
        self._next_round_delivered = 0.0
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self.filled_pipe = False

        self._cycle_index = 0
        self._cycle_stamp = 0.0

        self._probe_rtt_done_time: Optional[float] = None
        self._min_rtt_stamp = 0.0
        self.cwnd_bytes, self.pacing_rate = self.outputs()

    # ------------------------------------------------------------------
    # Filters
    # ------------------------------------------------------------------

    def _update_round(self, info: AckInfo) -> None:
        if info.delivered_at_send >= self._next_round_delivered:
            self.round_count += 1
            self._next_round_delivered = info.delivered_bytes

    def _update_bw(self, info: AckInfo) -> None:
        sample = info.delivery_rate
        if sample is None or sample <= 0:
            return
        samples = self._bw_samples
        round_count = self.round_count
        # btl_bw is the max over samples: a sample can only raise it, and
        # only the maximum leaving the window makes us look at the rest.
        best = self.btl_bw if samples and self.btl_bw > sample else sample
        if samples and samples[-1][0] == round_count:
            if sample > samples[-1][1]:
                samples[-1] = (round_count, sample)
        else:
            samples.append((round_count, sample))
        horizon = round_count - BW_WINDOW_ROUNDS
        expired = False
        while samples[0][0] < horizon:
            expired |= samples.popleft()[1] == best
        self.btl_bw = max(bw for _, bw in samples) if expired else best

    def _update_min_rtt(self, info: AckInfo) -> None:
        # Monotonic deque: O(1) amortized sliding-window minimum.
        samples = self._rtt_samples
        while samples and samples[-1][1] >= info.rtt:
            samples.pop()
        samples.append((info.now, info.rtt))
        while samples and samples[0][0] < info.now - MIN_RTT_WINDOW:
            samples.popleft()
        new_min = samples[0][1]
        # The RTprop timestamp refreshes only when a fresh *sample* matches
        # or improves the estimate (BBR's rtprop_stamp); otherwise the
        # estimate is stale and PROBE_RTT must eventually fire.
        if (info.rtt <= self.min_rtt_est
                or not math.isfinite(self.min_rtt_est)):
            self._min_rtt_stamp = info.now
        self.min_rtt_est = new_min

    # ------------------------------------------------------------------
    # Mode machine
    # ------------------------------------------------------------------

    def _check_full_pipe(self) -> None:
        if self.filled_pipe:
            return
        if self.btl_bw >= self._full_bw * 1.25:
            self._full_bw = self.btl_bw
            self._full_bw_rounds = 0
            return
        self._full_bw_rounds += 1
        if self._full_bw_rounds >= 3:
            self.filled_pipe = True

    def _bdp_bytes(self, gain: float = 1.0) -> float:
        if not math.isfinite(self.min_rtt_est) or self.btl_bw <= 0:
            return math.inf
        return gain * self.btl_bw * self.min_rtt_est

    def _advance_cycle(self, now: float) -> None:
        if now - self._cycle_stamp > max(self.min_rtt_est, 1e-3):
            self._cycle_index = (self._cycle_index + 1) % len(PROBE_BW_GAINS)
            self._cycle_stamp = now
            self.pacing_gain = PROBE_BW_GAINS[self._cycle_index]

    def on_ack(self, info: AckInfo) -> None:
        now = info.now
        self._update_round(info)
        self._update_bw(info)
        self._update_min_rtt(info)
        if self.mode == BBR.STARTUP:
            self._check_full_pipe()
            if self.filled_pipe:
                self.mode = BBR.DRAIN
                self.pacing_gain = 1.0 / STARTUP_GAIN
                self._cwnd_gain_now = self.cwnd_gain
        if self.mode == BBR.DRAIN:
            if info.inflight_bytes <= self._bdp_bytes(1.0):
                self._enter_probe_bw(now)
        if self.mode == BBR.PROBE_BW:
            self._advance_cycle(now)
        self._maybe_probe_rtt(now, info)
        self.cwnd_bytes, self.pacing_rate = self.outputs()

    def _enter_probe_bw(self, now: float) -> None:
        self.mode = BBR.PROBE_BW
        self._cwnd_gain_now = self.cwnd_gain
        # Random initial phase (not the 1.25 probe), per BBR v1.
        self._cycle_index = self._rng.randrange(1, len(PROBE_BW_GAINS))
        self._cycle_stamp = now
        self.pacing_gain = PROBE_BW_GAINS[self._cycle_index]

    def _maybe_probe_rtt(self, now: float, info: AckInfo) -> None:
        if not self.enable_probe_rtt:
            return
        if (self.mode != BBR.PROBE_RTT
                and now - self._min_rtt_stamp > MIN_RTT_WINDOW
                and self.filled_pipe):
            self.mode = BBR.PROBE_RTT
            self.pacing_gain = 1.0
            self._probe_rtt_done_time = now + PROBE_RTT_DURATION
        elif self.mode == BBR.PROBE_RTT:
            if now >= (self._probe_rtt_done_time or 0.0):
                self._min_rtt_stamp = now
                self._enter_probe_bw(now)

    def on_loss(self, now: float, seq: int, lost_bytes: int) -> None:
        # BBR v1 mostly ignores individual losses (no MD).
        pass

    def on_timeout(self, now: float) -> None:
        # Conservative restart: forget the bandwidth estimate.
        self._bw_samples.clear()
        self.btl_bw = 0.0
        self.filled_pipe = False
        self.mode = BBR.STARTUP
        self.pacing_gain = STARTUP_GAIN
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self.cwnd_bytes, self.pacing_rate = self.outputs()

    # ------------------------------------------------------------------
    # Control outputs
    # ------------------------------------------------------------------

    def outputs(self) -> Tuple[float, Optional[float]]:
        """``(cwnd_bytes, pacing_rate)`` from the filters and the mode."""
        btl_bw = self.btl_bw
        # No estimate yet: unpaced (ACK-clocked) early startup.
        pacing = None if btl_bw <= 0 else self.pacing_gain * btl_bw
        mss = self.mss
        if self.mode == BBR.PROBE_RTT:
            return PROBE_RTT_CWND_PACKETS * mss, pacing
        bdp = self._cwnd_gain_now * btl_bw * self.min_rtt_est
        if btl_bw <= 0 or not math.isfinite(bdp):
            return 10 * mss, pacing  # startup default before an estimate
        return bdp + self.quanta_packets * mss, pacing
