"""Sliding-window specifications.

The paper presents its techniques with time-based sliding windows and notes
that count-based windows are handled identically.  A query's window is a
plain number (seconds, or a tuple count vetted by :func:`as_count`): a
time window of size ``W`` keeps a tuple ``a`` alive while a newer tuple
``b`` from the opposite stream satisfies ``Tb - Ta < W``, a count window of
size ``N`` keeps the last ``N`` tuples.

A :class:`WindowSlice` is the half-open interval ``[start, end)`` of
timestamp offsets assigned to one sliced window join (Definition 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.errors import QueryError

__all__ = ["WindowSlice", "as_count"]


def as_count(window: float, context: str = "window") -> int:
    """Coerce a window size to a positive integer tuple count.

    Count-based plan builders accept the same :class:`ContinuousQuery`
    objects as the time-based ones (``window`` is a float there); this
    validates that every window is usable as a rank boundary.
    """
    count = int(window)
    if count != window or count <= 0:
        raise QueryError(
            f"{context} must be a positive integer tuple count, got {window!r}"
        )
    return count


@dataclass(frozen=True, slots=True, order=True)
class WindowSlice:
    """Half-open window range ``[start, end)`` of one sliced join.

    ``start`` and ``end`` are offsets (seconds for time-based windows, ranks
    for count-based windows) relative to the probing tuple's timestamp.
    The slice of the first join in a chain always starts at 0
    (Definition 2).
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise QueryError(f"slice start must be non-negative, got {self.start}")
        if self.end <= self.start:
            raise QueryError(
                f"slice end must exceed start, got [{self.start}, {self.end})"
            )

    @property
    def length(self) -> float:
        return self.end - self.start

    def contains_offset(self, offset: float) -> bool:
        """True when ``offset = T_probe - T_state`` falls inside the slice."""
        return self.start <= offset < self.end

    def describe(self) -> str:
        return f"[{self.start:g}, {self.end:g})"
