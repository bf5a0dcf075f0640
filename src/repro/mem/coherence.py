"""MESI coherence protocol vocabulary: states and messages.

The protocol is directory-centered (no cache-to-cache forwarding): the
directory resolves every conflict by sending invalidations or downgrades
to private caches and granting data/state to the requester once all acks
arrive.  Compared to Ruby's three-hop MESI this adds a little latency to
dirty sharing but preserves every ordering and deadlock property the
paper relies on (DESIGN.md section 2).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field


class MESIState(enum.Enum):
    """Private-cache coherence states.

    ``writable``/``readable`` are plain member attributes (filled in
    right below the class), not properties: the hierarchy reads one of
    them on every memory access and the descriptor-call overhead was
    measurable at sweep scale.
    """

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    writable: bool
    readable: bool


for _state in MESIState:
    _state.writable = _state in (MESIState.MODIFIED, MESIState.EXCLUSIVE)
    _state.readable = _state is not MESIState.INVALID
del _state


class MessageKind(enum.Enum):
    """Coherence message types."""

    # Core -> directory requests
    GET_S = "GetS"  # read permission
    GET_X = "GetX"  # write permission (also used for upgrades)
    PUT_LINE = "PutLine"  # eviction notice (with implicit writeback)
    # Directory -> core
    DATA_E = "DataE"  # grant Exclusive
    DATA_S = "DataS"  # grant Shared
    DATA_M = "DataM"  # grant Modified
    INV = "Inv"  # invalidate (remote write or recall)
    DOWNGRADE = "Downgrade"  # M/E -> S (remote read)
    # Core -> directory acks
    INV_ACK = "InvAck"
    DOWNGRADE_ACK = "DowngradeAck"
    #: Requester -> directory: the granted data arrived; the directory may
    #: close the transaction and serve the next request for the line.
    #: Without this, a later request can be serviced while an earlier
    #: grant is still in flight, leaving two cores believing they own the
    #: line (the race is real in hardware too; Ruby solves it the same way).
    UNBLOCK = "Unblock"


#: Directory address for message routing.
DIRECTORY_NODE = -1

_message_ids = itertools.count()


@dataclass(slots=True)
class CoherenceMessage:
    """One message on the interconnect.

    ``transaction`` ties acks back to the directory transaction that
    requested them; ``msg_id`` makes logs and tests deterministic.
    :meth:`repro.mem.interconnect.Interconnect.send_msg` builds a fresh
    message per send, so a handler that queues one (the hierarchy's
    deferred-while-locked queues, the directory's blocked-request
    queues) simply keeps the reference.
    """

    kind: MessageKind
    line: int
    src: int
    dst: int
    transaction: int = -1
    msg_id: int = field(default_factory=lambda: next(_message_ids))

    def __repr__(self) -> str:
        return (
            f"Msg#{self.msg_id}({self.kind.value} line={self.line:#x} "
            f"{self.src}->{self.dst})"
        )
