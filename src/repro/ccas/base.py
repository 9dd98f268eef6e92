"""Congestion control algorithm (CCA) interface for the packet simulator.

A CCA acts on the sender through two outputs, read on every pass of its
send loop:

* ``cwnd_bytes`` — the window limit on bytes in flight (may be ``inf``
  for purely rate-based schemes);
* ``pacing_rate`` — bytes/s pacing (``None`` = ACK-clocked, no pacing).

Both are plain attributes. Every CCA recomputes them with one pure
``outputs()`` and publishes the pair at the end of every state change;
the invariant sentinel reports a published pair that differs from
``outputs()``. :class:`WindowCCA` publishes in :meth:`~WindowCCA.clamp_cwnd`,
the one place that floors its window, and :class:`RateCCA` in its
``rate`` setter and :meth:`~RateCCA.note_rtt`.

The sender pushes events into the CCA: ``on_ack`` with an
:class:`~repro.sim.packet.AckInfo` digest (RTT sample, delivery-rate
sample, bytes acked), ``on_loss`` per lost packet, and ``on_timeout`` on
an RTO. ``attach`` is called once when the flow starts, publishes the
outputs in the sender's ``mss`` and gives the CCA access to the sender
(and through it, the simulator clock for timers).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from ..sim.packet import AckInfo


#: Initial congestion window, packets (RFC 6928 style).
INITIAL_CWND = 10.0


class CCA:
    """Base class with sensible no-op defaults.

    Subclasses typically override ``on_ack`` and ``outputs``, which
    defaults to an unlimited window and no pacing. ``self.sender`` is
    available after :meth:`attach`; ``self.mss`` is the sender's from
    then on.
    """

    cwnd_bytes: float = math.inf
    pacing_rate: Optional[float] = None
    mss: int = 1500

    def __init__(self) -> None:
        self.sender = None

    # -- wiring --------------------------------------------------------

    def attach(self, sender) -> None:
        """Called by the sender when the flow starts."""
        self.sender = sender
        self.mss = sender.mss
        self.cwnd_bytes, self.pacing_rate = self.outputs()
        self.on_start()

    def on_start(self) -> None:
        """Hook for CCAs that need timers; runs once at flow start."""

    def outputs(self) -> Tuple[float, Optional[float]]:
        """``(cwnd_bytes, pacing_rate)`` recomputed from the state."""
        return math.inf, None

    # -- convenience accessors ------------------------------------------

    @property
    def sim(self):
        return self.sender.sim

    @property
    def now(self) -> float:
        return self.sender.sim.now

    # -- events ----------------------------------------------------------

    def on_ack(self, info: AckInfo) -> None:
        """An ACK arrived; ``info`` digests the sample."""

    def on_send(self, now: float, seq: int, size: int,
                is_retransmit: bool) -> None:
        """A packet was handed to the network (PCC monitors use this)."""

    def on_loss(self, now: float, seq: int, lost_bytes: int) -> None:
        """A packet was declared lost by gap detection."""

    def on_timeout(self, now: float) -> None:
        """The retransmission timeout fired."""


class WindowCCA(CCA):
    """Helper base for window-based CCAs keeping cwnd in packets.

    Maintains ``self.cwnd`` in packets (float). Every handler that moves
    it ends in :meth:`clamp_cwnd`, which floors it at ``min_cwnd``
    packets and publishes ``cwnd_bytes``. ``ssthresh`` starts at
    infinity; :meth:`cut_once` is the once-per-recovery-episode
    multiplicative decrease and the default :meth:`on_timeout` resets
    the window to ``min_cwnd``.
    """

    def __init__(self, initial_cwnd: float = 4.0,
                 min_cwnd: float = 1.0) -> None:
        super().__init__()
        self.cwnd = initial_cwnd
        self.min_cwnd = min_cwnd
        self.ssthresh = math.inf
        self._recovery_until = -1  # highest seq outstanding at last cut
        self.cwnd_bytes = initial_cwnd * self.mss

    def outputs(self) -> Tuple[float, Optional[float]]:
        return self.cwnd * self.mss, None

    def clamp_cwnd(self) -> None:
        """Floor the window at ``min_cwnd`` and publish it."""
        if self.cwnd < self.min_cwnd:
            self.cwnd = self.min_cwnd
        self.cwnd_bytes = self.cwnd * self.mss

    def cut_once(self, seq: int, factor: float) -> bool:
        """Multiply the window by ``factor`` unless ``seq`` was already
        outstanding at the last cut (one cut per recovery episode);
        ``ssthresh`` follows the cut window. Returns whether it cut."""
        if seq <= self._recovery_until:
            return False
        self._recovery_until = self.sender.next_seq - 1
        self.cwnd *= factor
        self.clamp_cwnd()
        self.ssthresh = self.cwnd
        return True

    def on_timeout(self, now: float) -> None:
        self.cwnd = self.min_cwnd
        self.clamp_cwnd()


class RateCCA(CCA):
    """Helper base for rate-based CCAs (PCC family, Algorithm 1).

    Maintains ``self.rate`` in bytes/s used as the pacing rate; the
    window is a loose cap of ``cwnd_multiplier`` x rate x latest RTT so a
    rate-based sender cannot dump unbounded inflight when the network
    stalls. Setting ``rate`` and :meth:`note_rtt` publish both outputs.
    """

    def __init__(self, initial_rate: float, min_rate: float = 1500.0,
                 cwnd_multiplier: float = 50.0) -> None:
        super().__init__()
        self.min_rate = min_rate
        self.cwnd_multiplier = cwnd_multiplier
        self._latest_rtt: Optional[float] = None
        self.rate = initial_rate

    @property
    def rate(self) -> float:
        return self._rate

    @rate.setter
    def rate(self, value: float) -> None:
        self._rate = value
        self.cwnd_bytes, self.pacing_rate = self.outputs()

    def note_rtt(self, rtt: float) -> None:
        self._latest_rtt = rtt
        self.cwnd_bytes, self.pacing_rate = self.outputs()

    def clamp_rate(self) -> None:
        if self.rate < self.min_rate:
            self.rate = self.min_rate

    def outputs(self) -> Tuple[float, Optional[float]]:
        """``(cwnd_bytes, pacing_rate)`` from the rate and latest RTT."""
        rate = self._rate
        if self._latest_rtt is None:
            return math.inf, rate
        return (max(4 * 1500.0,
                    self.cwnd_multiplier * rate * self._latest_rtt), rate)
