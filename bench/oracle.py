"""An independent numpy reference for the benchmark's join outputs.

Shares no code with ``repro.operators`` / ``repro.core`` / ``repro.runtime``:
it sees the arrivals as plain columns and derives, per query, the number of
result pairs and an order-independent 64-bit digest over their
``(left.seqno, right.seqno)`` identities.

A pair ``(a, b)`` of one left-stream and one right-stream arrival belongs to
a query iff

* ``|a.timestamp - b.timestamp| < window`` (strict, as the runtime's purge and
  routing comparisons are),
* the join condition holds — ``a.key == b.key`` (equi) or
  ``(a.key + b.key) % domain < threshold`` (modular),
* ``a.value > 1 - left_selectivity`` and ``b.value > 1 - right_selectivity``
  for the filters the query carries, and
* the position of the pair's *later* arrival lies in the query's
  ``[admit, remove)`` interval of arrival positions.  For queries admitted
  mid-stream this is exact only while some resident query keeps every tuple
  younger than the largest window in state — the umbrella query of the
  ``churn`` workload (``docs/invariants.md``).

Candidate pairs are enumerated once for the largest window by grouping the
right stream by key and binary-searching each left arrival's time range
inside its partner key's group; each query is then one boolean mask.  The
modular condition is handled as ``threshold`` equi-lookups on the partner
keys ``(r - a.key) % domain``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Arrivals:
    """Column view of an arrival sequence, in arrival (timestamp) order."""

    timestamp: np.ndarray  #: float64
    key: np.ndarray  #: int64 join key
    value: np.ndarray  #: float64 filter attribute
    seqno: np.ndarray  #: int64 tuple identity
    is_left: np.ndarray  #: bool, True for the left stream

    def __len__(self) -> int:
        return len(self.timestamp)

    def prefix(self, count: int) -> "Arrivals":
        return Arrivals(*(column[:count] for column in self.columns()))

    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.timestamp, self.key, self.value, self.seqno, self.is_left)


@dataclass(frozen=True)
class OracleQuery:
    """What the oracle needs to know about one query."""

    name: str
    window: float
    left_selectivity: float | None = None
    right_selectivity: float | None = None
    admit: int = 0  #: Arrivals fed before the admission.
    remove: int | None = None  #: Arrivals fed before the removal (None: never).


def pair_digest(left_seqno: np.ndarray, right_seqno: np.ndarray) -> int:
    """Order-independent digest: the wrapping sum of a 64-bit mix per pair."""
    with np.errstate(over="ignore"):
        left = left_seqno.astype(np.uint64)
        right = right_seqno.astype(np.uint64)
        mixed = left * np.uint64(0x9E3779B97F4A7C15) ^ (
            right + np.uint64(0x632BE59BD9B4E019)
        ) * np.uint64(0xC2B2AE3D27D4EB4F)
        mixed ^= mixed >> np.uint64(29)
        mixed *= np.uint64(0xBF58476D1CE4E5B9)
        mixed ^= mixed >> np.uint64(32)
        return int(mixed.sum(dtype=np.uint64)) & MASK64


def _candidate_pairs(
    arrivals: Arrivals, window: float, domain: int, threshold: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``(left, right)`` of every pair within ``window`` that
    satisfies the join condition (``threshold`` None: equality)."""
    timestamp = arrivals.timestamp
    count = len(arrivals)
    left_pos = np.nonzero(arrivals.is_left)[0]
    right_pos = np.nonzero(~arrivals.is_left)[0]
    # Right arrivals sorted by (key, position); position order is time order.
    composite = arrivals.key[right_pos] * count + right_pos
    order = np.argsort(composite, kind="stable")
    composite = composite[order]
    right_sorted = right_pos[order]
    # A slightly widened time range; the exact strict test follows below.
    left_time = timestamp[left_pos]
    low = np.searchsorted(timestamp, left_time - window - 1e-6, side="left")
    high = np.searchsorted(timestamp, left_time + window + 1e-6, side="right")
    residues = [None] if threshold is None else range(threshold)
    lefts, rights = [], []
    for residue in residues:
        partner = (
            arrivals.key[left_pos]
            if residue is None
            else (residue - arrivals.key[left_pos]) % domain
        )
        start = np.searchsorted(composite, partner * count + low, side="left")
        stop = np.searchsorted(composite, partner * count + high, side="left")
        sizes = stop - start
        total = int(sizes.sum())
        owner = np.repeat(np.arange(len(left_pos)), sizes)
        offsets = np.arange(total) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        lefts.append(left_pos[owner])
        rights.append(right_sorted[start[owner] + offsets])
    left = np.concatenate(lefts)
    right = np.concatenate(rights)
    keep = np.abs(timestamp[left] - timestamp[right]) < window
    return left[keep], right[keep]


def expected(
    arrivals: Arrivals,
    queries: list[OracleQuery],
    domain: int,
    threshold: int | None = None,
) -> dict[str, tuple[int, int]]:
    """``{query: (result count, digest)}`` for ``queries`` over ``arrivals``."""
    largest = max(query.window for query in queries)
    left, right = _candidate_pairs(arrivals, largest, domain, threshold)
    gap = np.abs(arrivals.timestamp[left] - arrivals.timestamp[right])
    later = np.maximum(left, right)
    left_value = arrivals.value[left]
    right_value = arrivals.value[right]
    left_seqno = arrivals.seqno[left]
    right_seqno = arrivals.seqno[right]
    answers = {}
    for query in queries:
        mask = gap < query.window
        if query.left_selectivity is not None:
            mask &= left_value > 1.0 - query.left_selectivity
        if query.right_selectivity is not None:
            mask &= right_value > 1.0 - query.right_selectivity
        if query.admit:
            mask &= later >= query.admit
        if query.remove is not None:
            mask &= later < query.remove
        answers[query.name] = (
            int(mask.sum()),
            pair_digest(left_seqno[mask], right_seqno[mask]),
        )
    return answers
