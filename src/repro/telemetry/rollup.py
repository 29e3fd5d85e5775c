"""Hierarchical rollup of a telemetry snapshot: slice -> group -> subsystem.

:meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot` is *flat*: every
provider mounts under a dotted prefix (``subsystem.ip.slice0.memory``,
``routes.search``, ``routes.shard1.search``) and snapshots to its own
dict.  A serving tier wants the other view — "what is the aggregate AMAL
of group ``ip``", "how many reads across every slice of the subsystem" —
without each component knowing it is being aggregated.

:func:`build_rollup` turns one snapshot into a :class:`RollupNode` tree
keyed by the dotted-path segments, then computes, at every interior node,
the **aggregate** of each same-named stat block appearing anywhere below
it.  Leaf-merge rules:

* integer leaves add exactly;
* ``max_*`` leaves (largest displacement, deepest queue...) take the
  maximum;
* float leaves add (accumulated in sorted child order, so the result is a
  pure function of the *set* of children — shard arrival order never
  changes the rollup);
* integer-keyed count dicts (access histograms) add per key;
* serialized :class:`~repro.telemetry.histogram.LatencyHistogram` sketches
  merge bucket-exactly;
* **derived ratios** (``hit_rate``, ``amal``, ``mean``...) are *recomputed*
  from the merged base counters — summing ratios would be wrong — and
  dropped when their bases are absent;
* strings/bools are kept only when every instance agrees (configuration
  echoes survive, conflicts drop).

Because every rule is commutative and the fold order is canonicalized,
``merge(a, b) == merge(b, a)`` holds for whole trees — the property the
rollup tests pin down.  ``as_dict()``/:func:`rollup_from_dict`
round-trip the tree through JSON, and :func:`flatten_rollup` exposes the
aggregates as dotted numeric leaves for
:func:`~repro.telemetry.compare.compare_telemetry`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.telemetry.histogram import is_sketch_dict, merge_sketch_dicts

#: Derived leaves recomputed (never summed) at aggregate time:
#: ``name: (numerator leaf, denominator leaf)`` within the same block.
DERIVED_RATIOS: Dict[str, Tuple[str, str]] = {
    "hit_rate": ("hits", "lookups"),
    "amal": ("total_bucket_accesses", "lookups"),
    "average_match_passes": ("total_match_passes", "total_bucket_accesses"),
    "average_insert_probes": ("insert_probe_total", "inserts"),
    "load_factor": ("record_count", "capacity_records"),
    "mean": ("sum", "count"),
    "spill_rate": ("spilled_copies", "copy_count"),
}


def _is_count_dict(value: object) -> bool:
    """True for ``{"3": 17, ...}`` integer-keyed count mappings."""
    if not isinstance(value, dict) or is_sketch_dict(value):
        return False
    for key, count in value.items():
        try:
            int(key)
        except (TypeError, ValueError):
            return False
        if not isinstance(count, int) or isinstance(count, bool):
            return False
    return True


def merge_blocks(blocks: List[Dict[str, object]]) -> Dict[str, object]:
    """Merge same-shaped stat dicts under the rollup leaf rules.

    The fold is canonicalized (keys visited in sorted order, instances in
    the order given but every rule commutative), so any permutation of
    ``blocks`` produces the same result.
    """
    if not blocks:
        return {}
    if len(blocks) == 1:
        return dict(blocks[0])
    keys = sorted({key for block in blocks for key in block})
    merged: Dict[str, object] = {}
    for key in keys:
        values = [block[key] for block in blocks if key in block]
        if key in DERIVED_RATIOS:
            continue  # recomputed below from the merged bases
        first = values[0]
        if isinstance(first, bool):
            if all(v == first for v in values):
                merged[key] = first
        elif isinstance(first, (int, float)) and key.startswith("max_"):
            merged[key] = max(values)
        elif isinstance(first, (int, float)):
            total = 0
            for v in sorted(float(v) for v in values):
                total += v
            if all(isinstance(v, int) for v in values):
                total = int(total)
            merged[key] = total
        elif is_sketch_dict(first):
            merged[key] = merge_sketch_dicts(values)
        elif _is_count_dict(first) and all(_is_count_dict(v) for v in values):
            counts: Dict[int, int] = {}
            for v in values:
                for bucket, count in v.items():
                    counts[int(bucket)] = counts.get(int(bucket), 0) + count
            merged[key] = {str(k): v for k, v in sorted(counts.items())}
        elif isinstance(first, dict):
            merged[key] = merge_blocks([v for v in values if isinstance(v, dict)])
        else:
            if all(v == first for v in values):
                merged[key] = first
    for name, (num, den) in DERIVED_RATIOS.items():
        if any(name in block for block in blocks):
            numerator = merged.get(num)
            denominator = merged.get(den)
            if isinstance(numerator, (int, float)) and isinstance(
                denominator, (int, float)
            ):
                merged[name] = numerator / denominator if denominator else 0.0
    return merged


class RollupNode:
    """One node of the rollup tree: own stat blocks plus children.

    Attributes:
        name: the path segment this node sits under.
        blocks: stat blocks mounted *directly* at this node
            (``{block_name: dict}`` — e.g. the ``search`` block of
            ``subsystem.ip.slice0``).
        children: child nodes by segment name.
    """

    __slots__ = ("name", "blocks", "children")

    def __init__(self, name: str = "root") -> None:
        self.name = name
        self.blocks: Dict[str, Dict[str, object]] = {}
        self.children: Dict[str, "RollupNode"] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def child(self, name: str) -> "RollupNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = RollupNode(name)
        return node

    def mount(self, path: str, block: Dict[str, object]) -> None:
        """Attach one provider dict under a dotted path.

        The last segment names the block; everything before it walks (and
        creates) intermediate nodes.
        """
        if not path:
            raise ConfigurationError("rollup mount path must be non-empty")
        *segments, block_name = path.split(".")
        node = self
        for segment in segments:
            node = node.child(segment)
        node.blocks[block_name] = dict(block)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def _collect(self, name: str, out: List[Dict[str, object]]) -> None:
        if name in self.blocks:
            out.append(self.blocks[name])
        for key in sorted(self.children):
            self.children[key]._collect(name, out)

    def block_names(self) -> List[str]:
        """Every block name appearing at or below this node, sorted."""
        names = set(self.blocks)
        for node in self.children.values():
            names.update(node.block_names())
        return sorted(names)

    def aggregate(self) -> Dict[str, Dict[str, object]]:
        """Merge every same-named block of the subtree (sorted-child fold).

        Children are always folded in sorted-name order, so the aggregate
        is a function of the subtree *content*, never of mount/registration
        order — the shard-order-independence contract.
        """
        out: Dict[str, Dict[str, object]] = {}
        for name in self.block_names():
            instances: List[Dict[str, object]] = []
            self._collect(name, instances)
            out[name] = merge_blocks(instances)
        return out

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def as_dict(self, include_aggregate: bool = True) -> Dict[str, object]:
        """Nested JSON form: blocks, children, and (optionally) the
        subtree aggregates at every interior node."""
        out: Dict[str, object] = {
            "blocks": {k: dict(v) for k, v in sorted(self.blocks.items())},
            "children": {
                name: self.children[name].as_dict(include_aggregate)
                for name in sorted(self.children)
            },
        }
        if include_aggregate and self.children:
            out["aggregate"] = self.aggregate()
        return out

    def flatten(self) -> Dict[str, object]:
        """Dotted ``{path.block.leaf: value}`` view of the mounted blocks
        (no aggregates — the exact inverse of repeated :meth:`mount`)."""
        flat: Dict[str, object] = {}
        for block_name in sorted(self.blocks):
            for leaf, value in self.blocks[block_name].items():
                flat[f"{block_name}.{leaf}"] = value
        for child_name in sorted(self.children):
            for path, value in self.children[child_name].flatten().items():
                flat[f"{child_name}.{path}"] = value
        return flat


def build_rollup(
    snapshot: Dict[str, object], root_name: str = "root"
) -> RollupNode:
    """Build the rollup tree from one registry snapshot.

    Provider stats mount under their dotted prefixes; counters, gauges,
    and exact histograms mount as single-leaf blocks so they participate
    in the same tree (``tracer.dropped_events`` rolls up like any other
    counter).
    """
    root = RollupNode(root_name)
    for prefix, block in snapshot.get("stats", {}).items():
        if isinstance(block, dict) and block:
            root.mount(prefix, block)
    for name, value in snapshot.get("counters", {}).items():
        root.mount(name, {"count": value})
    for name, value in snapshot.get("gauges", {}).items():
        root.mount(name, {"value": value})
    for name, block in snapshot.get("histograms", {}).items():
        if isinstance(block, dict):
            root.mount(name, dict(block))
    return root


def rollup_from_dict(
    data: Dict[str, object], name: str = "root"
) -> RollupNode:
    """Rebuild a tree serialized by :meth:`RollupNode.as_dict` (the
    ``aggregate`` annotations are recomputable, so they are ignored)."""
    node = RollupNode(name)
    for block_name, block in data.get("blocks", {}).items():
        node.blocks[block_name] = dict(block)
    for child_name, child in data.get("children", {}).items():
        node.children[child_name] = rollup_from_dict(child, child_name)
    return node


def flatten_rollup(node: RollupNode) -> Dict[str, object]:
    """Dotted numeric view of a tree's **aggregates** plus its leaves —
    the form :func:`~repro.telemetry.compare.compare_telemetry` diffs."""
    flat: Dict[str, object] = dict(node.flatten())
    if node.children:
        for block_name, block in node.aggregate().items():
            for leaf, value in block.items():
                flat[f"aggregate.{block_name}.{leaf}"] = value
    return flat


__all__ = [
    "DERIVED_RATIOS",
    "RollupNode",
    "build_rollup",
    "rollup_from_dict",
    "flatten_rollup",
    "merge_blocks",
]
