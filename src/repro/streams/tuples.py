"""Stream tuple model.

The engine manipulates :class:`StreamTuple` objects: immutable records
carrying a payload (mapping of attribute name to value), an arrival
timestamp, and the name of the logical stream they belong to.

Two auxiliary record types support the state-slice execution model of the
paper:

* :class:`RefTuple` — the "male"/"female" reference copies used by sliced
  binary window joins (Section 4.2 of the paper).  A male reference drives
  cross-purging and probing; a female reference only fills states.
* :class:`Punctuation` — a marker flowing through queues asserting that no
  tuple with a smaller timestamp will follow.  The order-preserving union
  uses punctuations emitted by the last sliced join of a chain to release
  sorted output (Section 4.3).

Joined results are represented by :class:`JoinedTuple`, which keeps the two
source tuples and exposes the combined payload lazily.
"""

from __future__ import annotations

import itertools
import pickle
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "StreamTuple",
    "JoinedTuple",
    "RefTuple",
    "MALE",
    "FEMALE",
    "Punctuation",
    "make_tuple",
    "build_all",
    "encode_batch",
    "decode_batch",
]

_tuple_counter = itertools.count()

#: Gender tags for reference copies used by sliced binary joins.
MALE = "male"
FEMALE = "female"


@dataclass(frozen=True, slots=True)
class StreamTuple:
    """A single tuple of a data stream.

    Parameters
    ----------
    stream:
        Name of the logical stream (for example ``"A"`` or ``"Temperature"``).
    timestamp:
        Arrival timestamp in seconds.  Timestamps are globally ordered
        across streams, mirroring the paper's assumption of a global clock.
    values:
        Mapping of attribute name to value.  Stored as a plain dict but
        treated as immutable by convention.
    seqno:
        Monotonically increasing sequence number used to break timestamp
        ties deterministically.
    """

    stream: str
    timestamp: float
    values: Mapping[str, Any]
    seqno: int = field(default_factory=lambda: next(_tuple_counter))

    def __getitem__(self, attribute: str) -> Any:
        return self.values[attribute]

    def get(self, attribute: str, default: Any = None) -> Any:
        return self.values.get(attribute, default)

    def age(self, now: float) -> float:
        """Age of the tuple relative to clock time ``now`` (seconds)."""
        return now - self.timestamp

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        vals = ", ".join(f"{k}={v!r}" for k, v in self.values.items())
        return f"{self.stream}@{self.timestamp:g}({vals})"


@dataclass(frozen=True, slots=True)
class JoinedTuple:
    """Result of joining one tuple from each of two streams.

    The timestamp of a joined tuple is ``max(Ta, Tb)`` as defined in
    Section 2 of the paper.
    """

    left: StreamTuple
    right: StreamTuple

    @property
    def timestamp(self) -> float:
        return max(self.left.timestamp, self.right.timestamp)

    @property
    def values(self) -> dict[str, Any]:
        """Combined payload with attribute names prefixed by stream name."""
        combined: dict[str, Any] = {}
        for name, value in self.left.values.items():
            combined[f"{self.left.stream}.{name}"] = value
        for name, value in self.right.values.items():
            combined[f"{self.right.stream}.{name}"] = value
        return combined

    def key(self) -> tuple[int, int]:
        """Identity of the joined pair, independent of join order."""
        return (self.left.seqno, self.right.seqno)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"({self.left!r} >< {self.right!r})"


@dataclass(frozen=True, slots=True)
class RefTuple:
    """A reference copy of a stream tuple used inside sliced-join chains.

    Sliced binary window joins process each arriving tuple as two reference
    copies (Section 4.2): the *male* copy purges and probes the opposite
    state, the *female* copy is inserted into its own state.  Both copies
    point at the same underlying :class:`StreamTuple`, so the payload is not
    duplicated.
    """

    base: StreamTuple
    gender: str

    @property
    def stream(self) -> str:
        return self.base.stream

    @property
    def timestamp(self) -> float:
        return self.base.timestamp

    @property
    def values(self) -> Mapping[str, Any]:
        return self.base.values

    @property
    def seqno(self) -> int:
        return self.base.seqno

    def is_male(self) -> bool:
        return self.gender == MALE

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        tag = "m" if self.is_male() else "f"
        return f"{self.base!r}^{tag}"


@dataclass(frozen=True, slots=True)
class Punctuation:
    """Assertion that no future tuple will carry ``timestamp`` < this one.

    ``source`` names the emitting operator or stream; the union operator
    tracks the minimum punctuation seen per source to decide which buffered
    join results are safe to release in timestamp order.
    """

    timestamp: float
    source: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"punct[{self.source}]<{self.timestamp:g}"


def make_tuple(stream: str, timestamp: float, **values: Any) -> StreamTuple:
    """Convenience constructor used heavily in tests and examples."""
    return StreamTuple(stream=stream, timestamp=timestamp, values=values)


def build_all(cls: type, count: int, *columns: Iterable[Any]) -> list[Any]:
    """``[cls(*row) for row in zip(*columns)]`` for ``count`` rows of a frozen
    slots dataclass (a column per field, no defaults) without a Python call
    per record: ``object.__new__`` and each slot's member-descriptor
    ``__set__``, which frozenness does not guard, run under C-level ``map``s."""
    made = list(map(object.__new__, itertools.repeat(cls, count)))
    for name, values in zip(cls.__slots__, columns):
        deque(map(getattr(cls, name).__set__, made, values), maxlen=0)
    return made


# -- columnar wire format -------------------------------------------------------
def encode_batch(tuples: Sequence[StreamTuple]) -> bytes:
    """Serialize a batch of stream tuples in struct-of-arrays layout.

    Timestamps and seqnos travel as packed ``float64`` / ``int64`` columns
    (``array`` buffers) instead of per-tuple object graphs, which is what the
    sharded engine pushes through its shared-memory arrival rings.  The
    payload dicts stay a plain pickled list — they are opaque to the engine.
    Round-trips through :func:`decode_batch` exactly: same streams,
    timestamps, values, and seqnos (workers never mint new seqnos).
    """
    return pickle.dumps(
        (
            [tup.stream for tup in tuples],
            array("d", [tup.timestamp for tup in tuples]).tobytes(),
            array("q", [tup.seqno for tup in tuples]).tobytes(),
            [tup.values for tup in tuples],
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def decode_batch(payload: bytes) -> list[StreamTuple]:
    """Rebuild the stream tuples from :func:`encode_batch` output."""
    streams, ts_bytes, seqno_bytes, values = pickle.loads(payload)
    timestamps = array("d")
    timestamps.frombytes(ts_bytes)
    seqnos = array("q")
    seqnos.frombytes(seqno_bytes)
    return [
        StreamTuple(stream, timestamp, payload_values, seqno)
        for stream, timestamp, payload_values, seqno in zip(
            streams, timestamps, values, seqnos
        )
    ]
