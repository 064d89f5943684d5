"""Bloom filters for digest value sets.

The precision of the value-set representations stored in source digests
"is controlled by parameters dividing up the available space; histograms
and Bloom filters are used" (paper §2.2).  This Bloom filter is a plain
bit-array implementation parameterised by bits per inserted value so the
digest-precision benchmark (E9) can sweep the space/precision trade-off.

Each of a value's ``hash_count`` positions is its own 32-bit word of one
SHAKE-128 digest: double hashing (``h1 + i * h2``) over ``values x bits``
positions probes few distinct bits when ``h2`` shares a factor with the
size, far above :meth:`BloomFilter.false_positive_rate`.
"""

from __future__ import annotations

import copy
import hashlib
import math
import struct
from typing import Iterable


class BloomFilter:
    """A fixed-size Bloom filter over normalised string values."""

    def __init__(self, expected_items: int, bits_per_value: int = 16):
        if expected_items <= 0:
            expected_items = 1
        if bits_per_value <= 0:
            raise ValueError("bits_per_value must be positive")
        self.bits_per_value = bits_per_value
        self.size = max(8, expected_items * bits_per_value)
        # Optimal number of hash functions for the chosen size.
        self.hash_count = max(1, round(self.size / expected_items * math.log(2)))
        self._bits = bytearray((self.size + 7) // 8)
        self.inserted = 0

    # ------------------------------------------------------------------
    def add(self, value: object) -> None:
        """Insert a value (normalised to a lowercase string)."""
        for position in self._positions(value):
            self._bits[position // 8] |= 1 << (position % 8)
        self.inserted += 1

    def copy(self) -> BloomFilter:
        """A filter holding the same bits, grown independently of this one."""
        twin = copy.copy(self)
        twin._bits = bytearray(self._bits)
        return twin

    def add_all(self, values: Iterable[object]) -> None:
        """Insert every value of ``values``."""
        for value in values:
            self.add(value)

    def might_contain(self, value: object) -> bool:
        """True when the value may have been inserted (no false negatives)."""
        return all(self._bits[p // 8] & (1 << (p % 8)) for p in self._positions(value))

    def __contains__(self, value: object) -> bool:
        return self.might_contain(value)

    # ------------------------------------------------------------------
    def false_positive_rate(self) -> float:
        """Theoretical false-positive probability given the current load."""
        if self.inserted == 0:
            return 0.0
        exponent = -self.hash_count * self.inserted / self.size
        return (1.0 - math.exp(exponent)) ** self.hash_count

    def size_in_bytes(self) -> int:
        """Memory footprint of the bit array."""
        return len(self._bits)

    def fill_ratio(self) -> float:
        """Fraction of bits set to one."""
        set_bits = sum(bin(byte).count("1") for byte in self._bits)
        return set_bits / self.size

    # ------------------------------------------------------------------
    def _positions(self, value: object) -> list[int]:
        """``hash_count`` independent positions: one 32-bit word each."""
        count, size = self.hash_count, self.size
        digest = hashlib.shake_128(_normalize(value).encode("utf-8")).digest(4 * count)
        return [word % size for word in struct.unpack(f">{count}I", digest)]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"BloomFilter(size={self.size}, hashes={self.hash_count}, "
                f"inserted={self.inserted})")


def _normalize(value: object) -> str:
    return str(value).strip().lower()
