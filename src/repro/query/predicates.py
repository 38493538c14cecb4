"""Predicates and join conditions.

Two families of conditions are used by the paper and reproduced here:

* **Selection predicates** — boolean functions over a single tuple, such as
  ``A.value > Threshold`` in query Q2 of the motivating example.  Predicates
  compose with AND/OR/NOT; a disjunction of per-query predicates is what the
  selection push-down of Section 6 installs in front of each slice.

* **Join conditions** — boolean functions over a pair of tuples.  The paper
  presents equi-joins but notes the technique applies to any condition; we
  provide the equi-join plus a "modular match" condition whose selectivity
  can be dialled exactly, which the experiment harness uses to reproduce the
  S1 settings of Tables 1 and 3.

Every condition knows its *estimated selectivity* so the analytical cost
model and the CPU-Opt chain builder can reason about plans without running
them.
"""

from __future__ import annotations

import operator as _operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.engine.errors import QueryError
from repro.streams.generators import JOIN_KEY_DOMAIN
from repro.streams.tuples import StreamTuple

__all__ = [
    "Predicate",
    "ComparisonPredicate",
    "TruePredicate",
    "FalsePredicate",
    "AndPredicate",
    "OrPredicate",
    "NotPredicate",
    "attribute_gt",
    "selectivity_filter",
    "disjunction",
    "JoinCondition",
    "EquiJoinCondition",
    "ModularMatchCondition",
    "CrossProductCondition",
    "ThetaJoinCondition",
    "selectivity_join",
]

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    ">": _operator.gt,
    ">=": _operator.ge,
    "<": _operator.lt,
    "<=": _operator.le,
    "==": _operator.eq,
    "!=": _operator.ne,
}


# ---------------------------------------------------------------------------
# Selection predicates
# ---------------------------------------------------------------------------
class Predicate:
    """Boolean condition over a single stream tuple."""

    #: Estimated fraction of tuples satisfying the predicate (the paper's Sσ).
    selectivity: float = 1.0

    def matches(self, tup: StreamTuple) -> bool:
        raise NotImplementedError

    def __call__(self, tup: StreamTuple) -> bool:
        return self.matches(tup)

    # -- composition -------------------------------------------------------
    def __and__(self, other: "Predicate") -> "Predicate":
        return AndPredicate((self, other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return OrPredicate((self, other))

    def __invert__(self) -> "Predicate":
        return NotPredicate(self)

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """Always true; selectivity 1 (a query without a selection)."""

    selectivity: float = 1.0

    def matches(self, tup: StreamTuple) -> bool:
        return True

    def describe(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalsePredicate(Predicate):
    """Always false; selectivity 0."""

    selectivity: float = 0.0

    def matches(self, tup: StreamTuple) -> bool:
        return False

    def describe(self) -> str:
        return "false"


@dataclass(frozen=True)
class ComparisonPredicate(Predicate):
    """``tuple.attribute <op> constant`` with a known selectivity estimate."""

    attribute: str
    op: str
    constant: Any
    selectivity: float = 0.5

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise QueryError(
                f"unknown comparison operator {self.op!r}; expected one of "
                f"{sorted(_COMPARATORS)}"
            )
        if not 0.0 <= self.selectivity <= 1.0:
            raise QueryError(
                f"selectivity must lie in [0, 1], got {self.selectivity}"
            )

    def matches(self, tup: StreamTuple) -> bool:
        return _COMPARATORS[self.op](tup[self.attribute], self.constant)

    def describe(self) -> str:
        return f"{self.attribute} {self.op} {self.constant!r}"


class AndPredicate(Predicate):
    """Conjunction of child predicates (independence-based selectivity)."""

    def __init__(self, children: Sequence[Predicate]) -> None:
        self.children = tuple(children)
        if not self.children:
            raise QueryError("AndPredicate requires at least one child")
        selectivity = 1.0
        for child in self.children:
            selectivity *= child.selectivity
        self.selectivity = selectivity

    def matches(self, tup: StreamTuple) -> bool:
        return all(child.matches(tup) for child in self.children)

    def describe(self) -> str:
        return "(" + " AND ".join(child.describe() for child in self.children) + ")"


class OrPredicate(Predicate):
    """Disjunction of child predicates.

    The selectivity estimate assumes independence:
    ``1 - prod(1 - s_i)``.  For the nested disjunctions built by the
    selection push-down of Section 6 this matches the paper's intuition that
    a tuple "survives until the k-th slice" when any of the later queries'
    predicates accept it.
    """

    def __init__(self, children: Sequence[Predicate]) -> None:
        self.children = tuple(children)
        if not self.children:
            raise QueryError("OrPredicate requires at least one child")
        miss = 1.0
        for child in self.children:
            miss *= 1.0 - child.selectivity
        self.selectivity = 1.0 - miss

    def matches(self, tup: StreamTuple) -> bool:
        return any(child.matches(tup) for child in self.children)

    def describe(self) -> str:
        return "(" + " OR ".join(child.describe() for child in self.children) + ")"


class NotPredicate(Predicate):
    """Negation of a child predicate."""

    def __init__(self, child: Predicate) -> None:
        self.child = child
        self.selectivity = 1.0 - child.selectivity

    def matches(self, tup: StreamTuple) -> bool:
        return not self.child.matches(tup)

    def describe(self) -> str:
        return f"NOT {self.child.describe()}"


# -- convenience constructors -------------------------------------------------
def attribute_gt(attribute: str, constant: Any, selectivity: float = 0.5) -> Predicate:
    return ComparisonPredicate(attribute, ">", constant, selectivity)


def selectivity_filter(selectivity: float, attribute: str = "value") -> Predicate:
    """A filter with selectivity exactly ``selectivity`` on uniform [0, 1) data.

    The synthetic generator draws ``value`` uniformly from [0, 1); the
    predicate ``value > 1 - Sσ`` therefore passes a fraction Sσ of tuples.
    A selectivity of 1 returns :class:`TruePredicate` (no selection at all),
    matching the paper's "base case" of queries without filters.
    """
    if not 0.0 <= selectivity <= 1.0:
        raise QueryError(f"selectivity must lie in [0, 1], got {selectivity}")
    if selectivity >= 1.0:
        return TruePredicate()
    if selectivity <= 0.0:
        return FalsePredicate()
    return ComparisonPredicate(attribute, ">", 1.0 - selectivity, selectivity)


def disjunction(predicates: Iterable[Predicate]) -> Predicate:
    """OR-combine predicates, simplifying trivial cases and duplicates.

    Duplicate elimination matters for the selection push-down of Section 6:
    when several queries share the same predicate, the per-slice disjunction
    collapses back to that predicate, so no residual re-evaluation is needed
    on their results.  Duplicates are equal (``==``), not merely printed alike;
    the first of each is kept.  Hashable children are deduplicated by a dict,
    an unhashable one sends them all through a pairwise scan.
    """
    predicates = list(predicates)
    try:
        children = list(dict.fromkeys(predicates))
    except TypeError:
        children = [p for i, p in enumerate(predicates) if p not in predicates[:i]]
    if not children:
        return TruePredicate()
    if any(isinstance(p, TruePredicate) for p in children):
        return TruePredicate()
    children = [p for p in children if not isinstance(p, FalsePredicate)]
    if not children:
        return FalsePredicate()
    if len(children) == 1:
        return children[0]
    return OrPredicate(children)


# ---------------------------------------------------------------------------
# Join conditions
# ---------------------------------------------------------------------------
def _always_true(tup: StreamTuple) -> bool:
    return True


class JoinCondition:
    """Boolean condition over a pair of tuples (one per stream)."""

    #: Estimated join selectivity: output / Cartesian-product size (paper's S1).
    selectivity: float = 1.0

    #: ``(left_attribute, right_attribute)`` a columnar state should keep as
    #: its key column for vectorized probing, or ``None`` when the condition
    #: has no columnar form (probing falls back to the bound per-tuple check).
    columnar_attributes: tuple[str, str] | None = None

    #: Highest :func:`~repro.engine.columns.key_level`, over the stored *and*
    #: the probing keys, at which :meth:`match_mask` is exact; ``-1`` when the
    #: condition has no mask and probing takes the bound per-tuple check.
    mask_level: int = -1

    #: The form a key column stores its keys in, computed once per row as it
    #: enters: a function of a float64 array of keys, or ``None`` for the
    #: keys themselves.
    column_key: Callable[[Any], Any] | None = None

    def match_mask(self, probe_key: Any, keys: Any, int_keys: bool) -> Any:
        """Vectorized probe: a boolean mask over a candidate key column.

        ``keys`` is the float64 key column of the resident candidates (built
        on the *opposite* side's attribute of :attr:`columnar_attributes`, in
        the :attr:`column_key` form); ``probe_key`` is one probing key as a
        float, or an ``(m, 1)`` float64 column of them against a ``(1, n)``
        row of ``keys`` for an ``(m, n)`` mask.  The caller vets every key on
        both sides against :attr:`mask_level`; ``int_keys`` says all are
        arithmetic-safe integers (level 0).  Must agree elementwise with the
        per-tuple check.
        """
        return None

    def matches(self, left: StreamTuple, right: StreamTuple) -> bool:
        raise NotImplementedError

    def __call__(self, left: StreamTuple, right: StreamTuple) -> bool:
        return self.matches(left, right)

    def bind_left(self, left: StreamTuple) -> Callable[[StreamTuple], bool]:
        """Pre-bound probe predicate: ``check(right) == matches(left, right)``.

        A nested-loop probe evaluates one fixed tuple against every resident
        candidate; pre-binding lets subclasses hoist the fixed side's
        attribute lookups (and any derived constants) out of the inner loop,
        which is where per-probe method-resolution and dict-lookup overhead
        dominates.  The returned callable must be semantically identical to
        ``matches`` — the differential suites hold operators to that.
        """
        matches = self.matches

        def check(right: StreamTuple) -> bool:
            return matches(left, right)

        return check

    def bind_right(self, right: StreamTuple) -> Callable[[StreamTuple], bool]:
        """Pre-bound probe predicate: ``check(left) == matches(left, right)``."""
        matches = self.matches

        def check(left: StreamTuple) -> bool:
            return matches(left, right)

        return check

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class CrossProductCondition(JoinCondition):
    """Every pair matches (Cartesian product); selectivity 1.

    The chain execution trace of Table 2 in the paper uses this semantics
    ("every a tuple will match every b tuple").
    """

    selectivity: float = 1.0

    def matches(self, left: StreamTuple, right: StreamTuple) -> bool:
        return True

    def bind_left(self, left: StreamTuple) -> Callable[[StreamTuple], bool]:
        return _always_true

    def bind_right(self, right: StreamTuple) -> Callable[[StreamTuple], bool]:
        return _always_true

    def describe(self) -> str:
        return "true (cross product)"


@dataclass(frozen=True)
class EquiJoinCondition(JoinCondition):
    """``left.attribute == right.attribute`` equi-join.

    ``key_domain`` is the size of the key domain used to estimate the join
    selectivity (1 / domain for uniform keys).
    """

    left_attribute: str
    right_attribute: str
    key_domain: int = JOIN_KEY_DOMAIN

    def __post_init__(self) -> None:
        if self.key_domain <= 0:
            raise QueryError(f"key_domain must be positive, got {self.key_domain}")

    @property
    def selectivity(self) -> float:  # type: ignore[override]
        return 1.0 / self.key_domain

    @property
    def columnar_attributes(self) -> tuple[str, str]:  # type: ignore[override]
        return (self.left_attribute, self.right_attribute)

    mask_level = 1

    def match_mask(self, probe_key: Any, keys: Any, int_keys: bool) -> Any:
        return keys == probe_key

    def matches(self, left: StreamTuple, right: StreamTuple) -> bool:
        return left[self.left_attribute] == right[self.right_attribute]

    def bind_left(self, left: StreamTuple) -> Callable[[StreamTuple], bool]:
        # Hoists the probing side's key lookup out of the candidate loop;
        # the candidate side reads its payload dict directly.
        key = left[self.left_attribute]
        attribute = self.right_attribute

        def check(right: StreamTuple) -> bool:
            return right.values[attribute] == key

        return check

    def bind_right(self, right: StreamTuple) -> Callable[[StreamTuple], bool]:
        key = right[self.right_attribute]
        attribute = self.left_attribute

        def check(left: StreamTuple) -> bool:
            return left.values[attribute] == key

        return check

    def describe(self) -> str:
        return f"{self.left_attribute} == {self.right_attribute}"


@dataclass(frozen=True)
class ModularMatchCondition(JoinCondition):
    """Value-based join condition with exactly controllable selectivity.

    A pair matches when ``(left.key + right.key) mod domain < threshold``.
    With keys uniform on ``[0, domain)`` the sum modulo ``domain`` is also
    uniform, so the selectivity is exactly ``threshold / domain``.  The
    experiment harness uses this to hit the paper's S1 values (0.025, 0.1,
    0.4) precisely.

    A key column stores residues, ``key % domain`` (:meth:`column_key`), and
    the mask compares them: probing key ``a`` matches the residues of the
    rotated interval ``[(-a) % d, (-a) % d + t)`` modulo ``d``.  The mask
    runs over level-0 keys only (ints and bools with ``|v| <= 2**40``), so
    the residues and ``lo = (-a) % d`` are exact integers in ``[0, d)`` and
    ``diff = residue - lo`` is an exact integer in ``(-d, d)``; three
    comparisons of ``diff`` decide ``diff mod d < t`` for every ``t`` in
    ``[0, d]`` (:meth:`match_mask`).
    """

    threshold: int
    domain: int = JOIN_KEY_DOMAIN
    attribute: str = "join_key"

    def __post_init__(self) -> None:
        if self.domain <= 0:
            raise QueryError(f"domain must be positive, got {self.domain}")
        if not 0 <= self.threshold <= self.domain:
            raise QueryError(
                f"threshold must lie in [0, domain]; got {self.threshold} for "
                f"domain {self.domain}"
            )

    @property
    def selectivity(self) -> float:  # type: ignore[override]
        return self.threshold / self.domain

    @property
    def columnar_attributes(self) -> tuple[str, str]:  # type: ignore[override]
        return (self.attribute, self.attribute)

    #: Modular arithmetic is only exact in float64 for small integers on
    #: *both* sides; anything else takes the per-tuple check.
    mask_level = 0

    def column_key(self, keys: Any) -> Any:
        return keys % self.domain

    def match_mask(self, probe_key: Any, keys: Any, int_keys: bool) -> Any:
        # A match is ``diff < t - d`` (the sum wrapped) or ``0 <= diff < t``:
        # the bounds are ordered, so XOR keeps exactly those two runs.
        if not int_keys:
            return None
        diff = keys - (-probe_key) % self.domain
        return (diff < self.threshold - self.domain) ^ (diff < 0) ^ (diff < self.threshold)

    def matches(self, left: StreamTuple, right: StreamTuple) -> bool:
        return (left[self.attribute] + right[self.attribute]) % self.domain < self.threshold

    def _bind(self, bound: StreamTuple) -> Callable[[StreamTuple], bool]:
        # The condition is symmetric in its two sides, so one binding
        # serves both: hoist the fixed side's key and the dataclass field
        # reads out of the candidate loop.
        base = bound[self.attribute]
        attribute = self.attribute
        domain = self.domain
        threshold = self.threshold

        def check(other: StreamTuple) -> bool:
            return (base + other.values[attribute]) % domain < threshold

        return check

    bind_left = _bind
    bind_right = _bind

    def describe(self) -> str:
        return f"(l.{self.attribute} + r.{self.attribute}) % {self.domain} < {self.threshold}"


@dataclass(frozen=True)
class ThetaJoinCondition(JoinCondition):
    """General theta-join wrapping an arbitrary pairwise callable."""

    function: Callable[[StreamTuple, StreamTuple], bool]
    selectivity: float = 0.5
    label: str = "theta"

    def matches(self, left: StreamTuple, right: StreamTuple) -> bool:
        return bool(self.function(left, right))

    def describe(self) -> str:
        return self.label


def selectivity_join(selectivity: float, domain: int = JOIN_KEY_DOMAIN) -> JoinCondition:
    """Return a join condition with selectivity ``selectivity`` (exact).

    Selectivity 1 returns the cross-product condition used by the Table 2
    trace; other values use :class:`ModularMatchCondition`.
    """
    if not 0.0 < selectivity <= 1.0:
        raise QueryError(f"join selectivity must lie in (0, 1], got {selectivity}")
    if selectivity >= 1.0:
        return CrossProductCondition()
    threshold = round(selectivity * domain)
    if threshold == 0:
        raise QueryError(
            f"selectivity {selectivity} is too small for domain {domain}; "
            f"increase the domain"
        )
    return ModularMatchCondition(threshold=threshold, domain=domain)
