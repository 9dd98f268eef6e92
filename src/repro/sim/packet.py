"""Packet and ACK records passed between simulator components.

Packets are mutable records with ``__slots__``; the sender allocates one
plain :class:`Packet` per transmission and the receiver one plain
:class:`Ack` per acknowledgment, and nothing is ever reused.

Each data packet carries a snapshot of the sender's delivery counters at
send time (``delivered_at_send`` / ``delivered_time_at_send``). On ACK the
sender turns these into a delivery-rate sample the way Linux TCP's rate
sampler (and hence BBR) does: ``(delivered_now - delivered_at_send) /
(now - delivered_time_at_send)``.
"""

from __future__ import annotations

from typing import Optional


class Packet:
    """A data packet traversing the forward path."""

    __slots__ = ("flow_id", "seq", "size", "sent_time", "is_retransmit",
                 "delivered_at_send", "delivered_time_at_send", "ecn_marked")

    def __init__(self, flow_id: int, seq: int, size: int, sent_time: float,
                 delivered_at_send: float = 0.0,
                 delivered_time_at_send: float = 0.0,
                 is_retransmit: bool = False) -> None:
        self.flow_id = flow_id
        self.seq = seq
        self.size = size
        self.sent_time = sent_time
        self.is_retransmit = is_retransmit
        self.delivered_at_send = delivered_at_send
        self.delivered_time_at_send = delivered_time_at_send
        self.ecn_marked = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Packet(flow={self.flow_id}, seq={self.seq}, "
                f"size={self.size}, sent={self.sent_time:.6f})")


class Ack:
    """An acknowledgment traversing the reverse path.

    ``acked_seqs`` may cover several packets when the receiver aggregates
    or delays ACKs; ``rtt_sample_seq``/``rtt_sample_sent_time`` echo the
    newest covered packet, from which the sender derives the RTT sample.
    """

    __slots__ = ("flow_id", "acked_seqs", "acked_bytes",
                 "rtt_sample_seq", "rtt_sample_sent_time",
                 "delivered_at_send", "delivered_time_at_send",
                 "recv_time", "ecn_marked_count")

    def __init__(self, flow_id: int, acked_seqs: tuple,
                 acked_bytes: int, rtt_sample_seq: int,
                 rtt_sample_sent_time: float,
                 delivered_at_send: float,
                 delivered_time_at_send: float,
                 recv_time: float,
                 ecn_marked_count: int = 0) -> None:
        self.flow_id = flow_id
        self.acked_seqs = acked_seqs
        self.acked_bytes = acked_bytes
        self.rtt_sample_seq = rtt_sample_seq
        self.rtt_sample_sent_time = rtt_sample_sent_time
        self.delivered_at_send = delivered_at_send
        self.delivered_time_at_send = delivered_time_at_send
        self.recv_time = recv_time
        self.ecn_marked_count = ecn_marked_count

    @property
    def seq(self) -> int:
        """The newest covered packet's sequence number.

        Lets jitter/loss elements that key on ``seq`` operate on the ACK
        path as well as the data path.
        """
        return self.rtt_sample_seq

    @property
    def size(self) -> int:
        """Nominal wire size of an ACK, for shaper elements."""
        return 40

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Ack(flow={self.flow_id}, seqs={self.acked_seqs}, "
                f"bytes={self.acked_bytes})")


class AckInfo:
    """Digest handed to a CCA on each ACK event.

    Attributes:
        rtt: the RTT sample in seconds (newest packet covered by the ACK).
        acked_bytes: bytes newly acknowledged by this ACK.
        delivery_rate: rate sample in bytes/s (None for the first ACK).
        inflight_bytes: bytes in flight after processing the ACK.
        min_rtt: the connection's lifetime minimum RTT so far.
        now: current simulation time.
    """

    __slots__ = ("rtt", "acked_bytes", "delivery_rate", "inflight_bytes",
                 "min_rtt", "now", "delivered_bytes", "delivered_at_send",
                 "acked_seqs", "ecn_marked")

    def __init__(self, rtt: float, acked_bytes: int,
                 delivery_rate: Optional[float], inflight_bytes: int,
                 min_rtt: float, now: float,
                 delivered_bytes: float = 0.0,
                 delivered_at_send: float = 0.0,
                 acked_seqs: tuple = (),
                 ecn_marked: int = 0) -> None:
        self.rtt = rtt
        self.acked_bytes = acked_bytes
        self.delivery_rate = delivery_rate
        self.inflight_bytes = inflight_bytes
        self.min_rtt = min_rtt
        self.now = now
        self.delivered_bytes = delivered_bytes
        self.delivered_at_send = delivered_at_send
        self.acked_seqs = acked_seqs
        self.ecn_marked = ecn_marked
