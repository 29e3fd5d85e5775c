"""RAM substrate: row-organized arrays, device timing, banking, and a cache
model used to cost the software search baselines."""

from repro.memory.array import MemoryArray
from repro.memory.bank import BankedMemory
from repro.memory.cache import CacheSimulator, CacheStats
from repro.memory.mirror import DecodedMirror, keys_to_words
from repro.memory.timing import (
    DRAM_TIMING,
    SRAM_TIMING,
    MemoryTechnology,
    MemoryTiming,
)

__all__ = [
    "MemoryArray",
    "BankedMemory",
    "DecodedMirror",
    "keys_to_words",
    "CacheSimulator",
    "CacheStats",
    "MemoryTechnology",
    "MemoryTiming",
    "SRAM_TIMING",
    "DRAM_TIMING",
]
