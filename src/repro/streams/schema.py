"""Stream schema descriptors.

A :class:`Schema` describes the attributes carried by every tuple of a
stream.  Schemas are purely declarative — the engine does not enforce them
on every tuple for performance reasons — but the synthetic generators use
them to describe the streams they produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.engine.errors import SchemaError

__all__ = ["Attribute", "Schema", "SENSOR_READING_SCHEMA"]


@dataclass(frozen=True, slots=True)
class Attribute:
    """A single attribute of a stream schema.

    Parameters
    ----------
    name:
        Attribute name, unique within the schema.
    dtype:
        Python type of the values (``int``, ``float``, ``str`` ...).
    size_bytes:
        Estimated storage size, used by the cost model to convert
        tuple counts into kilobytes (the paper's ``Mt`` constant).
    """

    name: str
    dtype: type = float
    size_bytes: int = 8

    def validate(self, value: Any) -> bool:
        """Return True when ``value`` is acceptable for this attribute."""
        if value is None:
            return False
        return isinstance(value, self.dtype) or (
            self.dtype is float and isinstance(value, int)
        )


@dataclass(frozen=True)
class Schema:
    """An ordered collection of :class:`Attribute` for one stream."""

    stream: str
    attributes: tuple[Attribute, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [attribute.name for attribute in self.attributes]
        if len(names) != len(set(names)):
            raise SchemaError(
                f"duplicate attribute names in schema for stream {self.stream!r}: {names}"
            )

    # -- lookup -----------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return any(attribute.name == name for attribute in self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def attribute(self, name: str) -> Attribute:
        for candidate in self.attributes:
            if candidate.name == name:
                return candidate
        raise SchemaError(
            f"stream {self.stream!r} has no attribute {name!r}; "
            f"known attributes: {[a.name for a in self.attributes]}"
        )

    def names(self) -> list[str]:
        return [attribute.name for attribute in self.attributes]


#: Schema used by the paper's motivating sensor-network example: a reading
#: has a location identifier (the equi-join attribute) and a measured value
#: (the selection attribute).
SENSOR_READING_SCHEMA = Schema(
    stream="reading",
    attributes=(
        Attribute("location_id", int, 4),
        Attribute("value", float, 8),
    ),
)
