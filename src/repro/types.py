"""Shared primitive types used throughout the ``repro`` package.

The simulators deal with three notions of "address":

``address``
    A byte address, as produced by a traced program.

``block address``
    ``address >> log2(block_size)``.  Two byte addresses fall in the same
    cache block exactly when their block addresses are equal.  DEW stores
    block addresses as its "tags" so the same value can be compared at every
    tree level regardless of how many index bits that level consumes.

``set index``
    ``block_address & (num_sets - 1)`` for a power-of-two number of sets.
"""

from __future__ import annotations

import enum
from typing import Dict, Union

#: A byte address in the simulated address space.
Address = int

#: A block address (byte address shifted right by the block-offset width).
BlockAddress = int

#: Sentinel used in DEW structures for "no tag stored here".
INVALID_TAG: int = -1

#: Sentinel used for "this wave pointer carries no information".
EMPTY_WAVE: int = -1


class AccessType(enum.IntEnum):
    """Classification of a memory reference, mirroring Dinero's labels."""

    READ = 0
    WRITE = 1
    INSTR_FETCH = 2

    @classmethod
    def from_symbol(cls, symbol: Union[str, int]) -> "AccessType":
        """Parse a Dinero-style access label (``r``/``w``/``i`` or ``0``/``1``/``2``)."""
        if isinstance(symbol, int):
            return cls(symbol)
        text = symbol.strip().lower()
        mapping = {
            "r": cls.READ,
            "read": cls.READ,
            "0": cls.READ,
            "w": cls.WRITE,
            "write": cls.WRITE,
            "1": cls.WRITE,
            "i": cls.INSTR_FETCH,
            "ifetch": cls.INSTR_FETCH,
            "instr": cls.INSTR_FETCH,
            "2": cls.INSTR_FETCH,
        }
        try:
            return mapping[text]
        except KeyError as exc:
            raise ValueError(f"unknown access type symbol: {symbol!r}") from exc

    @property
    def symbol(self) -> str:
        """Single-character Dinero-style label."""
        return {self.READ: "r", self.WRITE: "w", self.INSTR_FETCH: "i"}[self]


class _AccessTypeTable(dict):
    """Code -> :class:`AccessType`; an unknown code raises like ``AccessType(code)``."""

    def __missing__(self, code: int) -> AccessType:
        return AccessType(code)


#: Per-access code lookup for the simulators' hot loops: a dict hit instead
#: of an enum ``__call__`` per access.
ACCESS_TYPE_BY_CODE: Dict[int, AccessType] = _AccessTypeTable(
    (access_type.value, access_type) for access_type in AccessType
)


class ReplacementPolicy(enum.Enum):
    """Replacement policies supported by the reference cache model.

    The enum is orderable (alphabetically by value) so configurations from
    different policies can live in one sorted result container.
    """

    FIFO = "fifo"
    LRU = "lru"
    RANDOM = "random"
    PLRU = "plru"

    def __lt__(self, other: object) -> bool:
        if isinstance(other, ReplacementPolicy):
            return self.value < other.value
        return NotImplemented

    @classmethod
    def parse(cls, name: Union[str, "ReplacementPolicy"]) -> "ReplacementPolicy":
        """Accept either an enum member or its (case-insensitive) name/value."""
        if isinstance(name, cls):
            return name
        text = str(name).strip().lower()
        for member in cls:
            if text in (member.value, member.name.lower()):
                return member
        raise ValueError(f"unknown replacement policy: {name!r}")


def is_power_of_two(value: int) -> bool:
    """Return ``True`` when ``value`` is a positive integral power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return ``log2(value)`` for a power of two, raising ``ValueError`` otherwise."""
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1
