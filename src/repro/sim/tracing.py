"""tcpdump-like packet tracing.

Figure 12(b) of the paper is a tcpdump captured at a backend server during a
YODA instance failure.  :class:`PacketTrace` reproduces that: any host (or
the network fabric itself) can attach one and every packet it sees is
recorded with its simulated timestamp and its typed header fields.

Records stay typed end to end: taps test ``flags`` bits and ``Endpoint``
fields directly, and text exists only where a sink renders it (``str`` of a
record, :func:`canonical_trace_line` for the schedule digests).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.net.addresses import Endpoint
from repro.net.packet import SYN, flags_to_str


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One captured packet."""

    time: float
    point: str  # capture point, e.g. "server-3" or "wire"
    direction: str  # "rx" or "tx"
    src: Endpoint
    dst: Endpoint
    flags: int  # TCP flag bitmask (SYN, ACK, ... from repro.net.packet)
    seq: int
    ack: int
    payload_len: int
    dropped: bool = False

    def __str__(self) -> str:
        drop = " DROPPED" if self.dropped else ""
        return (
            f"{self.time:10.6f} {self.point} {self.direction} "
            f"{self.src} > {self.dst}: {flags_to_str(self.flags)} "
            f"seq={self.seq} ack={self.ack} len={self.payload_len}{drop}"
        )


def canonical_trace_line(rec: TraceRecord) -> str:
    """One record as a stable line; schedule digests are folded over these.

    This is the same rendering the golden-trace suite pins, so a shard
    worker's running digest and a golden file's digest are directly
    comparable.
    """
    return (
        f"{rec.time:.9f} {rec.point} {rec.direction} "
        f"{rec.src}>{rec.dst} {flags_to_str(rec.flags)} seq={rec.seq} "
        f"ack={rec.ack} len={rec.payload_len}"
        f"{' DROPPED' if rec.dropped else ''}"
    )


class DigestTrace:
    """A trace tap that keeps no records -- only a running SHA-256.

    Shard workers attach one of these so a multi-hour, multi-million-packet
    run stays O(1) in memory while still producing a schedule digest the
    barrier coordinator can merge and compare across runs.
    """

    def __init__(self, name: str = "digest"):
        self.name = name
        self._sha = hashlib.sha256()
        self.count = 0

    def record(self, rec: TraceRecord) -> None:
        self._sha.update(canonical_trace_line(rec).encode())
        self.count += 1

    def digest(self) -> str:
        return self._sha.hexdigest()


class PacketTrace:
    """Accumulates :class:`TraceRecord` entries."""

    def __init__(self, name: str = "trace"):
        self.name = name
        self.records: List[TraceRecord] = []

    def record(self, rec: TraceRecord) -> None:
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def filter(
        self,
        *,
        point: Optional[str] = None,
        direction: Optional[str] = None,
    ) -> List[TraceRecord]:
        """Records captured at ``point`` and/or in ``direction`` ("rx" or
        "tx")."""
        out: Iterable[TraceRecord] = self.records
        if point is not None:
            out = (r for r in out if r.point == point)
        if direction is not None:
            out = (r for r in out if r.direction == direction)
        return list(out)

    def dump(self) -> str:
        """The whole trace as tcpdump-style text."""
        return "\n".join(str(r) for r in self.records)

    def retransmissions(self) -> List[TraceRecord]:
        """Records whose (src, dst, seq, payload_len) was already seen --
        i.e. retransmitted data segments."""
        seen = set()
        out = []
        for r in self.records:
            if r.payload_len == 0 and not r.flags & SYN:
                continue
            key = (r.src, r.dst, r.seq, r.payload_len, r.flags)
            if key in seen:
                out.append(r)
            seen.add(key)
        return out
