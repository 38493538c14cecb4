"""State-sliced window join operators (Section 4 of the paper).

Two operators are implemented:

* :class:`SlicedOneWayJoin` — ``A[Wstart, Wend] s⋉ B`` (Definition 1,
  execution steps of Figure 6).  Stream A tuples are stored; stream B
  tuples purge, probe and propagate.  Tuples purged from the state and the
  propagated B tuples feed the next join in a chain (Definition 2).

* :class:`SlicedBinaryJoin` — ``A[Wstart, Wend] s⋈ B[Wstart, Wend]``
  (Definition 3, execution steps of Figure 9).  Each raw input tuple is
  processed as two reference copies: the *male* copy cross-purges the
  opposite state, probes it and is propagated down the chain; the *female*
  copy is inserted into its own state and travels down the chain only when
  purged.  Only female copies occupy state memory, so a chain holds each
  tuple exactly once — the key memory property behind Theorem 3.

Both operators emit, per processed male/probe tuple, a
:class:`~repro.streams.tuples.Punctuation` on their ``punct`` port.  A
punctuation with timestamp ``T`` asserts that every joined result with
timestamp smaller than ``T`` reachable through this join has already been
emitted; the order-preserving union uses it to release sorted output
(Section 4.3 describes this role of the propagated male tuple).

These operators run in the static figure/table plans and, as
:class:`~repro.core.chain_operators.OperatorJoinChain`, as the per-item
reference of the runtime: a session builds no slice operator (its chain keeps
every slice as a row range of one column per stream, disk tier included), so
the operators' states are always in core.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.engine.columns import ColumnarState, ProbeBinding
from repro.engine.errors import PlanError
from repro.engine.metrics import CostCategory
from repro.engine.operator import Emission, Operator
from repro.query.predicates import JoinCondition
from repro.query.windows import WindowSlice
from repro.streams.tuples import (
    FEMALE,
    MALE,
    JoinedTuple,
    Punctuation,
    RefTuple,
    StreamTuple,
)

__all__ = [
    "KeyedStateMixin",
    "SlicedJoinBase",
    "SlicedOneWayJoin",
    "SlicedBinaryJoin",
]


class KeyedStateMixin:
    """Keyed extract/ingest over per-stream sliced states.

    The repartition primitive of the operator reference chain (a session's
    cursor chain answers :meth:`repro.runtime.sharding.ShardedStreamEngine.reshard`
    from its columns): the host keeps its resident tuples in a per-stream
    ``_states`` map and replaces a state wholesale via ``load_state``, which
    is all this mixin requires.
    """

    def extract_state(self, stream: str, predicate=None) -> list[StreamTuple]:
        """Remove and return one stream's resident tuples matching ``predicate``.

        The donor half of the repartition primitive: a reshard exports whole
        states with ``predicate=None`` and buckets them by key in the
        coordinator; a keyed ``predicate`` supports donor-side filtering
        (e.g. splitting one slice's state by key in place).  The remaining
        tuples keep their arrival order.
        """
        state = self._states[stream]
        if predicate is None:
            extracted = list(state)
            self.load_state(stream, ())
            return extracted
        extracted: list[StreamTuple] = []
        kept: list[StreamTuple] = []
        for tup in state:
            (extracted if predicate(tup) else kept).append(tup)
        if extracted:
            self.load_state(stream, kept)
        return extracted

    def ingest_state(self, stream: str, tuples: Iterable[StreamTuple]) -> int:
        """Splice foreign tuples into one stream's resident state.

        The receiving half of the repartition primitive: ``tuples`` (the
        extract of another shard's same-boundary slice) are merged with the
        resident tuples in global ``(timestamp, seqno)`` order — the order
        the purge loop relies on.  Returns the number of tuples spliced in.
        """
        incoming = list(tuples)
        if not incoming:
            return 0
        merged = sorted(
            list(self._states[stream]) + incoming,
            key=lambda tup: (tup.timestamp, tup.seqno),
        )
        self.load_state(stream, merged)
        return len(incoming)


class SlicedOneWayJoin(Operator):
    """Sliced one-way window join ``A[Wstart, Wend] s⋉ B`` (Definition 1).

    Ports
    -----
    * input ``left`` — stream A tuples to be inserted into the sliced state
      (for the first join of a chain these are the raw arrivals; for later
      joins they are the tuples purged by the previous join).
    * input ``right`` — stream B tuples that purge, probe and propagate.
    * output ``output`` — joined result pairs.
    * output ``purged`` — A tuples expelled by the cross-purge step,
      feeding the next join's ``left`` input.
    * output ``propagated`` — B tuples after probing, feeding the next
      join's ``right`` input.
    * output ``punct`` — punctuations carrying the probing tuple's
      timestamp.
    """

    input_ports = ("left", "right")
    output_ports = ("output", "purged", "propagated", "punct")

    def __init__(
        self,
        window_start: float,
        window_end: float,
        condition: JoinCondition,
        enforce_bounds: bool = False,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        self.slice = WindowSlice(window_start, window_end)
        self.condition = condition
        #: When True, the probe step re-checks the slice bounds on every
        #: candidate pair.  Inside a well-formed chain this is redundant
        #: (Lemma 1) and disabled so the CPU accounting matches the paper.
        self.enforce_bounds = enforce_bounds
        # The state holds left-stream (A) tuples, so the key column is
        # built on the left attribute; the probing B tuple supplies the
        # right attribute's value.
        self._state = ColumnarState(ProbeBinding(condition, stores_left=True))

    # -- state introspection ----------------------------------------------------
    def state_size(self) -> int:
        return len(self._state)

    def state_tuples(self) -> list[StreamTuple]:
        return list(self._state)

    # -- execution (Figure 6) -----------------------------------------------------
    def process(self, item: Any, port: str) -> list[Emission]:
        self.metrics.record_invocation(self.name)
        if isinstance(item, Punctuation):
            return [("punct", item)]
        if port == "left":
            self._state.append(item)
            return []
        if port != "right":
            raise PlanError(f"unexpected port {port!r} for {self.name!r}")
        emissions: list[Emission] = []
        # 1. Cross-purge: expel A tuples with Tb - Ta >= Wend.
        purged, comparisons = _scan_purge(self._state, item.timestamp, self.slice.end)
        self.metrics.count(CostCategory.PURGE, comparisons)
        emissions.extend(("purged", expired) for expired in purged)
        # 2. Probe: join the arriving B tuple against the remaining state.
        for candidate in self._state:
            self.metrics.count(CostCategory.PROBE)
            if self.enforce_bounds and not self.slice.contains_offset(
                item.timestamp - candidate.timestamp
            ):
                continue
            if self.condition.matches(candidate, item):
                emissions.append(("output", JoinedTuple(candidate, item)))
        # 3. Propagate the B tuple to the next join in the chain.
        emissions.append(("propagated", item))
        emissions.append(("punct", Punctuation(item.timestamp, source=self.name)))
        return emissions

    def describe(self) -> str:
        return f"A{self.slice.describe()} s⋉ B on {self.condition.describe()}"


def _scan_purge(state, now: float, end: float) -> tuple[list[StreamTuple], int]:
    """The literal purge loop of Figures 6 and 9 over the deque surface.

    Pops every head tuple with ``now - t >= end``; the comparison count is
    one per purged head plus the failing check when tuples remain.
    """
    purged: list[StreamTuple] = []
    comparisons = 0
    while state:
        comparisons += 1
        if now - state[0].timestamp < end:
            break
        purged.append(state.popleft())
    return purged, comparisons


class SlicedJoinBase(Operator):
    """What the time- and count-sliced binary joins share.

    Per-stream slice states behind one protocol, the probe orientation
    fixed per stream at construction, state
    introspection and the literal per-item Figure-9 path.  Subclasses keep
    what actually differs: a time slice cross-purges on probe (and, as the
    operator chain's slice, re-loads states under migrations), a rank slice
    overflows on insert.

    Ports
    -----
    * input ``left`` / ``right`` — raw stream tuples; only used by the first
      join of a chain, which converts each arrival into its male and female
      reference copies.
    * input ``chain`` — reference tuples arriving from the previous join of
      the chain (purged females and propagated males of either stream).
    * output ``output`` — joined result pairs.
    * output ``next`` — reference tuples for the next join in the chain.
    * output ``punct`` — punctuations emitted after a male finishes probing.
    """

    input_ports = ("left", "right", "chain")
    output_ports = ("output", "next", "punct")

    def __init__(
        self,
        condition: JoinCondition,
        left_stream: str,
        right_stream: str,
        name: str | None,
    ) -> None:
        super().__init__(name)
        self.condition = condition
        self.left_stream = left_stream
        self.right_stream = right_stream
        #: Per stream: ``(stream whose state its males probe, whether the
        #: male is the condition's left side)`` — which also decides whether
        #: a result is ``(male, match)`` or ``(match, male)``.
        self._orientation: dict[str, tuple[str, bool]] = {
            left_stream: (right_stream, True),
            right_stream: (left_stream, False),
        }
        # Everything orientation-dependent — the key attribute a state keeps,
        # the attribute read off the probing male, which ``bind_*`` the scalar
        # fallback uses — is fixed here, once per stream, and travels with the
        # state.
        self._bindings = {
            left_stream: ProbeBinding(condition, True),
            right_stream: ProbeBinding(condition, False),
        }
        self._states: dict[str, Any] = {
            stream: ColumnarState(binding) for stream, binding in self._bindings.items()
        }

    def _oriented(self, stream: str) -> tuple[str, bool]:
        try:
            return self._orientation[stream]
        except KeyError:
            raise PlanError(
                f"join {self.name!r} joins streams "
                f"{self.left_stream!r}/{self.right_stream!r}, got {stream!r}"
            ) from None

    # -- state introspection --------------------------------------------------------
    def state_size(self, stream: str | None = None) -> int:
        """Resident tuples of one stream's state, or of both."""
        if stream is not None:
            return len(self._states[stream])
        return sum(len(state) for state in self._states.values())

    def state_tuples(self, stream: str) -> list[StreamTuple]:
        return list(self._states[stream])

    # -- per-item execution: the literal scalar path of Figure 9 ------------------
    def process(self, item: Any, port: str) -> list[Emission]:
        self.metrics.record_invocation(self.name)
        if isinstance(item, Punctuation):
            return [("punct", item)]
        if port in ("left", "right"):
            # A raw arrival is captured as two reference copies (Section
            # 4.2): the male copy purges/probes/propagates first, then the
            # female copy is inserted into its own sliced state — the same
            # purge, probe, insert order as the regular join of Figure 1.
            emissions = self._process_male(RefTuple(item, MALE))
            emissions.extend(self._process_female(item))
            return emissions
        if port == "chain":
            if not isinstance(item, RefTuple):
                raise PlanError(
                    f"chain input of {self.name!r} expects reference tuples, got "
                    f"{type(item).__name__}"
                )
            if item.gender == FEMALE:
                return self._process_female(item.base)
            return self._process_male(item)
        raise PlanError(f"unexpected port {port!r} for {self.name!r}")

    def _process_male(self, ref: RefTuple) -> list[Emission]:
        raise NotImplementedError

    def _process_female(self, tup: StreamTuple) -> list[Emission]:
        raise NotImplementedError

    def _probe_and_propagate(
        self, ref: RefTuple, emissions: list[Emission], contains_offset=None
    ) -> list[Emission]:
        """Probe the opposite state candidate by candidate, then propagate.

        ``condition.matches`` per tuple of the opposite state, one ``PROBE``
        comparison each.
        """
        tup = ref.base
        opposite, male_is_left = self._oriented(tup.stream)
        for candidate in self._states[opposite].candidates(tup):
            self.metrics.count(CostCategory.PROBE)
            if contains_offset is not None and not contains_offset(
                tup.timestamp - candidate.timestamp
            ):
                continue
            left, right = (tup, candidate) if male_is_left else (candidate, tup)
            if self.condition.matches(left, right):
                emissions.append(("output", JoinedTuple(left, right)))
        # Propagate the male copy to the next join and punctuate the union.
        emissions.append(("next", ref))
        emissions.append(("punct", Punctuation(tup.timestamp, source=self.name)))
        return emissions


class SlicedBinaryJoin(KeyedStateMixin, SlicedJoinBase):
    """Sliced binary window join (Definition 3, execution of Figure 9).

    Ports are those of :class:`SlicedJoinBase`; keyed extract/ingest is
    :class:`KeyedStateMixin`'s.

    Parameters
    ----------
    window_start, window_end:
        The slice boundaries ``[Wstart, Wend)`` shared by both stream states.
    condition:
        Pairwise join condition.
    left_stream, right_stream:
        Stream names used to decide which state a reference tuple belongs to.
    """

    def __init__(
        self,
        window_start: float,
        window_end: float,
        condition: JoinCondition,
        left_stream: str = "A",
        right_stream: str = "B",
        enforce_bounds: bool = False,
        name: str | None = None,
    ) -> None:
        super().__init__(condition, left_stream, right_stream, name)
        self.slice = WindowSlice(window_start, window_end)
        self.enforce_bounds = enforce_bounds

    def load_state(self, stream: str, tuples: Iterable[StreamTuple]) -> None:
        """Replace one stream's sliced state (migration helper).

        Every migration path of the operator chain (merge, keyed
        extract/ingest) funnels through here.
        """
        self._states[stream] = ColumnarState(self._bindings[stream], tuples)

    # -- execution (Figure 9) ----------------------------------------------------------
    # Kept defined here for ``bench/trace.py``, which wraps it by owning class; nothing calls it.
    def process_batch(self, items: Iterable[Any], port: str) -> list[Emission]:
        return [emission for item in items for emission in self.process(item, port)]

    def _process_male(self, ref: RefTuple) -> list[Emission]:
        # 1. Cross-purge the opposite sliced state with Wend.
        state = self._states[self._oriented(ref.stream)[0]]
        purged, comparisons = _scan_purge(state, ref.timestamp, self.slice.end)
        self.metrics.count(CostCategory.PURGE, comparisons)
        emissions: list[Emission] = [("next", RefTuple(head, FEMALE)) for head in purged]
        # 2./3. Probe it, propagate the male copy.
        return self._probe_and_propagate(
            ref, emissions, self.slice.contains_offset if self.enforce_bounds else None
        )

    def _process_female(self, tup: StreamTuple) -> list[Emission]:
        # Insert: the female copy fills its own sliced state.
        self._states[tup.stream].append(tup)
        return []

    def describe(self) -> str:
        return (
            f"{self.left_stream}{self.slice.describe()} s⋈ "
            f"{self.right_stream}{self.slice.describe()} on {self.condition.describe()}"
        )
