"""Simulated IP/TCP packet: ECN codepoint, TCP flags, timestamps."""
from __future__ import annotations

# ECN codepoints (two IP header bits).
NOT_ECT = 0
ECT0 = 1
ECT1 = 2
CE = 3

# TCP flag bits.
F_SYN = 1
F_ACK = 2
F_ECE = 8
F_CWR = 16


class Packet:
    """One simulated segment. For pure ACKs, `seq` carries the cumulative ack
    and `sent_at` echoes the send time of the segment the ACK answers."""

    __slots__ = ("flow_id", "seq", "size_bytes", "ecn", "flags", "sent_at",
                 "dst_id", "enq_ns")

    def __init__(self, flow_id: int, seq: int, size_bytes: int, ecn: int,
                 flags: int, sent_at: int, dst_id: int):
        self.flow_id = flow_id
        self.seq = seq
        self.size_bytes = size_bytes
        self.ecn = ecn
        self.flags = flags
        self.sent_at = sent_at
        self.dst_id = dst_id
        self.enq_ns = 0

    def __repr__(self):
        return (f"Packet(flow={self.flow_id}, seq={self.seq}, {self.size_bytes}B, "
                f"ecn={self.ecn}, flags={self.flags})")
