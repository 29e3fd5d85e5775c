"""Cognitive-model declarative memory on CA-RAM (the paper's outlook).

Run with::

    python examples/cognitive_memory.py

The conclusions single out cognitive architectures: "a large-scale system
implementing a cognitive model such as ACT-R will benefit from employing
CA-RAM, as it requires much search and data evaluation capabilities."

This example sketches that use: declarative-memory *chunks* are encoded as
fixed-width keys of packed slots (ISA relation, agent, object), stored in a
ternary CA-RAM.  Retrieval requests specify some slots and leave others
unconstrained — exactly a masked CA-RAM search — and the result arrives in
one memory access instead of a software scan over the chunk store.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api import CaRamLibrary
from repro.core import RecordFormat, TernaryKey
from repro.core.config import Arrangement
from repro.hashing.bit_select import BitSelectHash

# ----------------------------------------------------------------------
# Chunk encoding: three 8-bit symbol slots packed into a 24-bit key.
# ----------------------------------------------------------------------

SLOT_BITS = 8
SLOTS = ("relation", "agent", "object")
KEY_BITS = SLOT_BITS * len(SLOTS)


class SymbolTable:
    """Interns symbols ("dog", "chases", ...) as 8-bit codes."""

    def __init__(self) -> None:
        self._codes: Dict[str, int] = {}
        self._names: List[str] = []

    def code(self, symbol: str) -> int:
        if symbol not in self._codes:
            if len(self._names) >= (1 << SLOT_BITS) - 1:
                raise ValueError("symbol table full")
            self._codes[symbol] = len(self._names) + 1  # 0 = unused
            self._names.append(symbol)
        return self._codes[symbol]

    def name(self, code: int) -> str:
        return self._names[code - 1]


@dataclass(frozen=True)
class Chunk:
    """One declarative fact: (relation, agent, object) plus activation."""

    relation: str
    agent: str
    object: str
    activation: int  # quantized base-level activation (the record data)


def encode_chunk(symbols: SymbolTable, chunk: Chunk) -> int:
    """Pack a chunk's slots into the 24-bit key."""
    key = 0
    for slot in SLOTS:
        key = (key << SLOT_BITS) | symbols.code(getattr(chunk, slot))
    return key


def encode_request(
    symbols: SymbolTable, **constraints: str
) -> TernaryKey:
    """A retrieval request: constrained slots are concrete, the rest X.

    >>> # retrieve(relation="chases", agent="dog") leaves `object` free.
    """
    value = 0
    mask = 0
    for slot in SLOTS:
        value <<= SLOT_BITS
        mask <<= SLOT_BITS
        if slot in constraints:
            value |= symbols.code(constraints[slot])
        else:
            mask |= (1 << SLOT_BITS) - 1
    return TernaryKey(value=value, mask=mask, width=KEY_BITS)


def main() -> None:
    symbols = SymbolTable()
    facts = [
        Chunk("chases", "dog", "cat", activation=90),
        Chunk("chases", "dog", "squirrel", activation=70),
        Chunk("chases", "cat", "mouse", activation=80),
        Chunk("fears", "mouse", "cat", activation=60),
        Chunk("fears", "cat", "dog", activation=50),
        Chunk("likes", "dog", "bone", activation=95),
    ]

    # A ternary database; hash over the relation slot (always constrained
    # in our requests, so no multi-bucket probes).
    lib = CaRamLibrary(slice_count=4, index_bits=4, row_bits=1024)
    memory = lib.allocate_database(
        "declarative",
        RecordFormat(key_bits=KEY_BITS, data_bits=8, ternary=True),
        slice_count=2,
        arrangement=Arrangement.VERTICAL,
        hash_function=BitSelectHash(KEY_BITS, range(3, 8)),  # relation bits
        # Higher-activation chunks take earlier slots: the priority
        # encoder then implements ACT-R's "most active chunk wins".
        slot_priority=lambda keys, masks, data: data[:, 0],
    )

    for chunk in facts:
        memory.insert(encode_chunk(symbols, chunk), data=chunk.activation)
    print(f"stored {memory.record_count} chunks "
          f"(load factor {memory.load_factor:.2f})\n")

    def retrieve(**constraints: str) -> Optional[Tuple[Chunk, int]]:
        request = encode_request(symbols, **constraints)
        result = memory.search(request)
        if not result.hit:
            return None
        key = result.record.key.value
        parts = []
        for shift in range(len(SLOTS) - 1, -1, -1):
            parts.append(
                symbols.name((key >> (shift * SLOT_BITS)) & 0xFF)
            )
        chunk = Chunk(*parts, activation=result.record.data)
        return chunk, result.bucket_accesses

    queries = [
        {"relation": "chases", "agent": "dog"},
        {"relation": "chases"},
        {"relation": "fears", "object": "cat"},
        {"relation": "likes", "agent": "cat"},
    ]
    for constraints in queries:
        spec = ", ".join(f"{k}={v}" for k, v in constraints.items())
        outcome = retrieve(**constraints)
        if outcome is None:
            print(f"retrieve({spec}) -> retrieval failure")
            continue
        chunk, accesses = outcome
        print(f"retrieve({spec})")
        print(f"  -> ({chunk.relation} {chunk.agent} {chunk.object}) "
              f"activation={chunk.activation}, {accesses} memory access")

    # ------------------------------------------------------------------
    # Massive data evaluation and modification (§1 / §3.2): ACT-R's
    # base-level decay applied to every chunk in one sweep.
    # ------------------------------------------------------------------
    full_mask = (1 << KEY_BITS) - 1
    decayed = memory.update_where(
        0, full_mask, lambda record: max(0, record.data - 10)
    )
    print(f"\napplied activation decay to {decayed} chunks in one sweep")
    strongest = max(
        (record for _, _, record in memory.scan()), key=lambda r: r.data
    )
    after = retrieve(relation="chases", agent="dog")
    assert after is not None
    print(f"strongest chunk after decay has activation {strongest.data}; "
          f"retrieval still works (activation {after[0].activation})")

    print("\nPartial matching over any slot combination, one bucket access "
          "per retrieval,\nhighest-activation chunk selected by the "
          "priority encoder, decay as a bulk\nupdate — the capabilities "
          "the paper projects for cognitive workloads.")


if __name__ == "__main__":
    main()
