"""Seeded synthetic dependency corpora for pipeline exercises.

Three shapes: a b-ary chain hierarchy (element at level j expands to b copies
of level j-1, so unwrapped lengths are exactly b**j), a flat one-level corpus,
and a seeded random DAG.  Generation is deterministic: one PCG64 stream per
(seed, shape) and name-ordered output.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .corpus import DepGraph

if TYPE_CHECKING:
    import numpy as np


def _rng(seed: int, stream: int) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def _row(name: str, kind: str, sig_refs: dict[str, int], body_refs: dict[str, int] | None = None):
    """A generated element without token counts, as a `DepGraph` row."""
    return (name, kind, True, None, None, sig_refs, body_refs or {})


def synth_hierarchy(b: int, height: int) -> DepGraph:
    """Chain hierarchy: level j references level j-1 with weight b."""
    if b < 2 or height < 1:
        raise ValueError("hierarchy needs b >= 2 and height >= 1")
    pad = len(str(height))
    rows = [_row(f"level{0:0{pad}d}", "primitive", {})]
    for j in range(1, height + 1):
        rows.append(_row(f"level{j:0{pad}d}", "definition", {f"level{j - 1:0{pad}d}": b}))
    return DepGraph(rows=rows)


def synth_flat(n_primitives: int, n_macros: int, fanout: int, seed: int) -> DepGraph:
    """One-level corpus: every macro references a random multiset of primitives.

    Multiset sizes vary uniformly over 1..fanout, so macro sizes span a range
    while every macro sits at depth 1.
    """
    if n_primitives < 1 or n_macros < 1 or fanout < 1:
        raise ValueError("flat corpora need positive sizes")
    rng = _rng(seed, 1)
    pad_p = len(str(n_primitives - 1))
    pad_m = len(str(n_macros - 1))
    rows = [_row(f"prim{i:0{pad_p}d}", "primitive", {}) for i in range(n_primitives)]
    for i in range(n_macros):
        size = int(rng.integers(1, fanout + 1))
        picks = rng.integers(0, n_primitives, size=size)
        refs: dict[str, int] = {}
        for p in picks:
            key = f"prim{int(p):0{pad_p}d}"
            refs[key] = refs.get(key, 0) + 1
        rows.append(_row(f"macro{i:0{pad_m}d}", "definition", refs))
    return DepGraph(rows=rows)


def synth_mixed(
    n_nodes: int,
    n_primitives: int,
    max_fanout: int,
    max_weight: int,
    seed: int,
) -> DepGraph:
    """Seeded random DAG: node i only references higher-indexed nodes, the last
    n_primitives of which are sinks, so the graph is acyclic by construction."""
    if n_nodes <= n_primitives:
        raise ValueError("need more nodes than primitives")
    if max_fanout < 1 or max_weight < 1:
        raise ValueError("fanout and weight caps must be positive")
    rng = _rng(seed, 2)
    pad = len(str(n_nodes - 1))
    first_prim = n_nodes - n_primitives
    rows: list[tuple] = []
    for i in range(n_nodes):
        if i >= first_prim:
            rows.append(_row(f"node{i:0{pad}d}", "primitive", {}))
            continue
        fanout = int(rng.integers(1, max_fanout + 1))
        targets = rng.choice(n_nodes - i - 1, size=min(fanout, n_nodes - i - 1),
                             replace=False) + i + 1
        sig_refs: dict[str, int] = {}
        body_refs: dict[str, int] = {}
        for t in sorted(int(t) for t in targets):
            weight = int(rng.integers(1, max_weight + 1))
            side = sig_refs if int(rng.integers(0, 2)) == 0 else body_refs
            side[f"node{t:0{pad}d}"] = weight
        if not sig_refs:
            # A body with an empty signature is malformed for ranking, so
            # promote the first reference to the signature side.
            first = next(iter(body_refs))
            sig_refs[first] = body_refs.pop(first)
        kind = "definition" if int(rng.integers(0, 2)) == 0 else "theorem"
        rows.append(_row(f"node{i:0{pad}d}", kind, sig_refs, body_refs))
    return DepGraph(rows=rows)
