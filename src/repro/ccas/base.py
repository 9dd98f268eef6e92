"""Congestion control algorithm (CCA) interface for the packet simulator.

A CCA controls the sender through two outputs, read before every
transmission:

* ``cwnd_bytes`` — the window limit on bytes in flight (may be ``inf``
  for purely rate-based schemes);
* ``pacing_rate`` — bytes/s pacing (``None`` = ACK-clocked, no pacing).

An output is a property or a plain attribute. BBR and every
:class:`RateCCA` keep attributes, recomputed by one pure ``outputs()``
and published at the end of every state change; the invariant sentinel
reports a published pair that differs from ``outputs()``.

The sender pushes events into the CCA: ``on_ack`` with an
:class:`~repro.sim.packet.AckInfo` digest (RTT sample, delivery-rate
sample, bytes acked), ``on_loss`` per lost packet, and ``on_timeout`` on
an RTO. ``attach`` is called once when the flow starts and gives the CCA
access to the sender (and through it, the simulator clock for timers).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from ..sim.packet import AckInfo


class CCA:
    """Base class with sensible no-op defaults.

    Subclasses typically override ``on_ack`` and the two outputs,
    which default to an unlimited window and no pacing. ``self.sender``
    is available after :meth:`attach`.
    """

    cwnd_bytes: float = math.inf
    pacing_rate: Optional[float] = None

    def __init__(self) -> None:
        self.sender = None

    # -- wiring --------------------------------------------------------

    def attach(self, sender) -> None:
        """Called by the sender when the flow starts."""
        self.sender = sender
        self.on_start()

    def on_start(self) -> None:
        """Hook for CCAs that need timers; runs once at flow start."""

    # -- convenience accessors ------------------------------------------

    @property
    def sim(self):
        return self.sender.sim

    @property
    def mss(self) -> int:
        return self.sender.mss

    @property
    def now(self) -> float:
        return self.sender.sim.now

    # -- events ----------------------------------------------------------

    def on_ack(self, info: AckInfo) -> None:
        """An ACK arrived; ``info`` digests the sample."""

    def on_send(self, now: float, seq: int, size: int,
                is_retransmit: bool) -> None:
        """A packet was handed to the network (PCC monitors use this).

        Must not change ``cwnd_bytes`` or ``pacing_rate``: the sender
        caches both across a same-instant send burst.
        """

    def on_loss(self, now: float, seq: int, lost_bytes: int) -> None:
        """A packet was declared lost by gap detection."""

    def on_timeout(self, now: float) -> None:
        """The retransmission timeout fired."""


class WindowCCA(CCA):
    """Helper base for window-based CCAs keeping cwnd in packets.

    Maintains ``self.cwnd`` in packets (float); ``cwnd_bytes`` converts
    using the mss. A floor of ``min_cwnd`` packets is enforced.
    """

    def __init__(self, initial_cwnd: float = 4.0,
                 min_cwnd: float = 1.0) -> None:
        super().__init__()
        self.cwnd = initial_cwnd
        self.min_cwnd = min_cwnd

    def clamp_cwnd(self) -> None:
        if self.cwnd < self.min_cwnd:
            self.cwnd = self.min_cwnd

    @property
    def cwnd_bytes(self) -> float:
        return self.cwnd * self.mss if self.sender else self.cwnd * 1500


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
