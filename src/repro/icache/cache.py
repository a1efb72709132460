"""A set-associative instruction cache with LRU replacement."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class InstructionCache:
    """LRU set-associative cache over instruction addresses.

    One IL instruction occupies 4 bytes of the simulated address space
    (functions are laid out contiguously by the VM's linker), matching
    the paper's practice of measuring in intermediate instructions.
    """

    def __init__(
        self,
        size_bytes: int = 1024,
        line_bytes: int = 16,
        associativity: int = 1,
    ):
        if size_bytes % (line_bytes * associativity) != 0:
            raise ValueError("cache size must be a multiple of line*ways")
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.num_sets = size_bytes // (line_bytes * associativity)
        self._line_shift = line_bytes.bit_length() - 1
        if 1 << self._line_shift != line_bytes:
            raise ValueError("line size must be a power of two")
        #: Per-set list of resident line tags, most recently used last.
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def access(self, address: int) -> bool:
        """Touch ``address``; returns True on hit."""
        line = address >> self._line_shift
        index = line % self.num_sets
        ways = self._sets[index]
        self.stats.accesses += 1
        if line in ways:
            if ways[-1] != line:
                ways.remove(line)
                ways.append(line)
            return True
        self.stats.misses += 1
        ways.append(line)
        if len(ways) > self.associativity:
            ways.pop(0)
        return False

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ICache {self.size_bytes}B/{self.line_bytes}B"
            f" {self.associativity}-way, miss={self.stats.miss_ratio:.3f}>"
        )
