"""Copa: target rate 1/(delta * dq) with velocity-doubling window moves.

Copa (Arun & Balakrishnan, NSDI 2018) estimates queueing delay as
``dq = standing_rtt - min_rtt`` where *standing RTT* is the minimum RTT
over a recent window of ~srtt/2 and *min RTT* the minimum over a long
window. It steers its rate cwnd/rtt toward the target ``1/(delta*dq)``
packets/s. In equilibrium each flow keeps roughly ``2/delta`` packets in
the queue (delta = 0.5 -> 4 packets), giving the paper's Figure 3 curve
RTT ~ Rm + 2.5/(delta*C) with oscillation delta(C) ~ 4*alpha/C.

The paper's Section 5.1 attack: one packet observing an RTT 1 ms below
the true Rm permanently poisons ``min_rtt``, inflating dq by 1 ms and
collapsing the target rate — throughput drops from 120 to ~8 Mbit/s.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional, Tuple

from ..sim.packet import AckInfo
from .base import INITIAL_CWND, WindowCCA


class Copa(WindowCCA):
    """Copa in its default (non-competitive) mode.

    Args:
        delta: Copa's delta parameter; target queueing delay scales as
            1/delta packets.
        min_rtt_window: horizon for the long-run min-RTT filter, seconds
            (math.inf = remember forever, matching short experiments).
        base_rtt: optional Rm oracle; disables the min-RTT estimator
            (used to show the attack requires estimation, not dynamics).
    """

    def __init__(self, delta: float = 0.5,
                 initial_cwnd: float = INITIAL_CWND,
                 min_rtt_window: float = math.inf,
                 base_rtt: Optional[float] = None) -> None:
        super().__init__(initial_cwnd=initial_cwnd, min_cwnd=2.0)
        if delta <= 0:
            raise ValueError(f"delta must be > 0, got {delta}")
        self.delta = delta
        self.min_rtt_window = min_rtt_window
        self.base_rtt_oracle = base_rtt

        # Standing RTT: monotonic (increasing) deque of (time, rtt) so the
        # windowed minimum is O(1) amortized per sample.
        self._rtt_history: Deque[Tuple[float, float]] = deque()
        self._min_rtt_history: Deque[Tuple[float, float]] = deque()
        self._min_rtt_scalar = math.inf   # used when the window is infinite
        self.velocity = 1.0
        self._direction = 0          # +1 increasing, -1 decreasing
        self._direction_rtts = 0
        self._epoch_end_seq = 0
        self._slow_start = True
        self.srtt: Optional[float] = None

    # -- RTT filters -----------------------------------------------------

    def _update_filters(self, now: float, rtt: float) -> None:
        srtt = self.srtt
        srtt = rtt if srtt is None else 0.9 * srtt + 0.1 * rtt
        self.srtt = srtt
        window = srtt / 2
        if window < 0.01:
            window = 0.01
        history = self._rtt_history
        # Monotonic deque: drop entries that can never again be the min.
        while history and history[-1][1] >= rtt:
            history.pop()
        history.append((now, rtt))
        cutoff = now - window
        while history[0][0] < cutoff:
            history.popleft()
        if self.base_rtt_oracle is None:
            if math.isinf(self.min_rtt_window):
                if rtt < self._min_rtt_scalar:
                    self._min_rtt_scalar = rtt
            else:
                long_hist = self._min_rtt_history
                while long_hist and long_hist[-1][1] >= rtt:
                    long_hist.pop()
                long_hist.append((now, rtt))
                while (long_hist
                       and long_hist[0][0] < now - self.min_rtt_window):
                    long_hist.popleft()

    @property
    def standing_rtt(self) -> float:
        if not self._rtt_history:
            return math.inf
        return self._rtt_history[0][1]

    @property
    def min_rtt(self) -> float:
        if self.base_rtt_oracle is not None:
            return self.base_rtt_oracle
        if math.isinf(self.min_rtt_window):
            return self._min_rtt_scalar
        if not self._min_rtt_history:
            return math.inf
        return self._min_rtt_history[0][1]

    # -- control -----------------------------------------------------------

    def on_ack(self, info: AckInfo) -> None:
        now = info.now
        rtt = info.rtt
        self._update_filters(now, rtt)
        # Inlined standing_rtt / min_rtt (this runs once per ACK).
        history = self._rtt_history
        standing = history[0][1] if history else math.inf
        oracle = self.base_rtt_oracle
        if oracle is not None:
            min_rtt = oracle
        elif math.isinf(self.min_rtt_window):
            min_rtt = self._min_rtt_scalar
        else:
            long_hist = self._min_rtt_history
            min_rtt = long_hist[0][1] if long_hist else math.inf
        if not (math.isfinite(standing) and math.isfinite(min_rtt)):
            return
        dq = max(standing - min_rtt, 0.0)
        delta = self.delta
        if dq <= 1e-9:
            target_rate = math.inf
        else:
            target_rate = 1.0 / (delta * dq)   # packets per second
        cwnd = self.cwnd
        current_rate = cwnd / standing

        if self._slow_start:
            if current_rate < target_rate:
                self.cwnd = cwnd + info.acked_bytes / self.mss
                self.clamp_cwnd()
                return
            self._slow_start = False

        # Cap the velocity so one RTT's worth of ACKs (~cwnd of them)
        # changes cwnd by at most a factor of 1.5: v/delta <= cwnd/2.
        velocity = min(self.velocity, delta * cwnd / 2)
        step = velocity / (delta * cwnd)
        if current_rate < target_rate:
            self.cwnd = cwnd + step
            self._note_direction(+1)
        else:
            self.cwnd = cwnd - step
            self._note_direction(-1)
        self.clamp_cwnd()

    def _note_direction(self, direction: int) -> None:
        """Copa's velocity rule, evaluated once per RTT epoch.

        Velocity doubles only after the direction has persisted for three
        consecutive RTTs (Copa paper Section 2.2); any direction change
        resets it to 1.
        """
        if direction != self._direction:
            self.velocity = 1.0
            self._direction = direction
            self._direction_rtts = 0
            return
        if self.sender.highest_acked < self._epoch_end_seq:
            return
        self._epoch_end_seq = self.sender.next_seq
        self._direction_rtts += 1
        if self._direction_rtts >= 3:
            self.velocity = min(self.velocity * 2, 2 ** 16)

    def on_loss(self, now: float, seq: int, lost_bytes: int) -> None:
        # Default-mode Copa only reacts to loss via its delay signal;
        # halve defensively on an actual drop (short-buffer paths).
        self.cwnd *= 0.5
        self.velocity = 1.0
        self.clamp_cwnd()

    def on_timeout(self, now: float) -> None:
        super().on_timeout(now)
        self.velocity = 1.0
        self._slow_start = True
