"""Seeded synthetic dependency corpora for pipeline exercises.

Three shapes: a b-ary chain hierarchy (element at level j expands to b copies
of level j-1, so unwrapped lengths are exactly b**j), a flat one-level corpus,
and a seeded random DAG.  Generation is deterministic, with name-ordered
output.  The two seeded shapes read the draws of `macrolab.stream`: blake2b
in counter mode, block i the digest of i as 8 little-endian bytes, keyed by
the seed as 8 little-endian bytes and personalised by the shape
(b"synth_flat" or b"synth_mixed"); each 64-byte block is read as 16
little-endian 32-bit words, and a draw below k takes the next word under
2**32 - 2**32 % k, mod k.  The stream is defined by macrolab's own code, so
a seed gives the same graph on every Python, and synth needs no numpy.
"""

from __future__ import annotations

from .corpus import DepGraph
from .stream import draws


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
    below = draws(seed, b"synth_flat")
    pad_p = len(str(n_primitives - 1))
    pad_m = len(str(n_macros - 1))
    prims = [f"prim{i:0{pad_p}d}" for i in range(n_primitives)]
    rows = [_row(name, "primitive", {}) for name in prims]
    for i in range(n_macros):
        refs: dict[str, int] = {}
        for _ in range(below(fanout) + 1):
            key = prims[below(n_primitives)]
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
    n_primitives of which are sinks, so the graph is acyclic by construction.

    Each non-primitive node draws its fanout f below max_fanout (plus one),
    then its targets as a uniform subset of size m = min(f, span) of the span
    nodes after it, by Floyd's subset sampling (m draws, whatever the
    fanout); then, target by target in index order, a weight below
    max_weight (plus one) and a side (signature or body); then its kind."""
    if n_nodes <= n_primitives:
        raise ValueError("need more nodes than primitives")
    if max_fanout < 1 or max_weight < 1:
        raise ValueError("fanout and weight caps must be positive")
    below = draws(seed, b"synth_mixed")
    pad = len(str(n_nodes - 1))
    names = [f"node{i:0{pad}d}" for i in range(n_nodes)]
    first_prim = n_nodes - n_primitives
    rows: list[tuple] = []
    for i in range(first_prim):
        span = n_nodes - i - 1
        picked: set[int] = set()
        for j in range(span - min(below(max_fanout) + 1, span), span):
            t = below(j + 1)
            picked.add(j if t in picked else t)
        sig_refs: dict[str, int] = {}
        body_refs: dict[str, int] = {}
        for t in sorted(picked):
            weight = below(max_weight) + 1
            (body_refs if below(2) else sig_refs)[names[i + 1 + t]] = weight
        if not sig_refs:
            # A body with an empty signature is malformed for ranking, so
            # promote the first reference to the signature side.
            first = next(iter(body_refs))
            sig_refs[first] = body_refs.pop(first)
        kind = "theorem" if below(2) else "definition"
        rows.append(_row(names[i], kind, sig_refs, body_refs))
    rows.extend(_row(name, "primitive", {}) for name in names[first_prim:])
    return DepGraph(rows=rows)
