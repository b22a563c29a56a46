"""Whole-corpus compression analytics on dependency graphs.

Cycles are collapsed first (iterative strongly-connected-component pass over
the graph's CSR rows), so unwrapped lengths and depths propagate over an
acyclic condensation; every pass works on integer indices, and names appear
only in the name-keyed results.
Unwrapped lengths are exact big integers; their base-2 logarithm is taken
once per node from the exact value, never accumulated in floating point.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, reduce
from typing import NamedTuple

from .corpus import DepGraph


class CondensedGraph:
    """Acyclic condensation of ``graph``: supernode -> its elements, summed edges.

    ``blocks[i]`` holds the element indices of supernode i in ascending
    order, which is name order.  Supernode numbers are a dependency order:
    every edge i -> j has j < i, so a loop over ``range(len(cg))`` meets each
    dependency before its dependents.  ``removed`` holds the supernodes a
    filter took out: they keep their blocks and edges, and every pass reads
    through them to the kept supernodes they reach.  ``comp_of[v]`` is the
    supernode of the graph's element ``v``, or -1 when that supernode is
    removed; ``node_of``, the same map keyed by name, is built from it on
    first use.
    """

    def __init__(self, graph: DepGraph, blocks: list[list[int]], edges: list[dict[int, int]],
                 comp_of: list[int], removed: frozenset[int] = frozenset()):
        self.graph = graph
        self.blocks = blocks
        self.edges = edges
        self.comp_of = comp_of
        self.removed = removed

    def __len__(self) -> int:
        return len(self.blocks)

    @cached_property
    def node_of(self) -> dict[str, int]:
        return self.per_element(range(len(self.blocks)))

    def is_sink(self, i: int) -> bool:
        return not self.edges[i]

    def in_degrees(self) -> list[int]:
        """Distinct kept dependents of each supernode, whether the edge is
        direct or runs through removed supernodes; a removed one reads 0."""
        edges = self.edges
        is_removed = [False] * len(edges)
        for i in self.removed:
            is_removed[i] = True
        degs = [0] * len(edges)
        seen = [-1] * len(edges)  # seen[t] == i: t is already reached from i
        for i in range(len(edges)):
            if is_removed[i]:
                continue
            stack = [i]
            while stack:
                for t in edges[stack.pop()]:
                    if seen[t] != i:
                        seen[t] = i
                        if is_removed[t]:
                            stack.append(t)
                        else:
                            degs[t] += 1
        return degs

    def label(self, i: int) -> str:
        return self.graph.sorted_names[self.blocks[i][0]]

    def per_element(self, values: list) -> dict:
        """Name -> the value of its supernode, in name order, removed elements left out."""
        return {name: values[c] for name, c in zip(self.graph.sorted_names, self.comp_of)
                if c >= 0}


def condense_scc(graph: DepGraph) -> CondensedGraph:
    """Collapse strongly connected components; inter-component weights are
    summed and self-loops dropped.  Iterative Tarjan (1972) over the graph's
    CSR rows, safe on deep graphs; a component is numbered only after every
    component it reaches, which makes the numbering a dependency order."""
    off, dst, ref_w = graph.off, graph.dst, graph.ref_w
    n = len(graph)
    UNSEEN = -1
    index = [UNSEEN] * n
    low = [0] * n
    comp = [UNSEEN] * n  # still UNSEEN for a visited node means it is on the stack
    stack: list[int] = []
    counter = 0
    blocks: list[list[int]] = []

    for root in range(n):
        if index[root] != UNSEEN:
            continue
        work = [(root, UNSEEN)]  # (node, next edge), UNSEEN until the node is entered
        while work:
            v, e = work[-1]
            if e == UNSEEN:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                e = off[v]
            end = off[v + 1]
            while e < end:
                w = dst[e]
                e += 1
                if index[w] == UNSEEN:
                    work[-1] = (v, e)
                    work.append((w, UNSEEN))
                    break
                if comp[w] == UNSEEN and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    members = []
                    while True:
                        u = stack.pop()
                        comp[u] = len(blocks)
                        members.append(u)
                        if u == v:
                            break
                    members.sort()
                    blocks.append(members)
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]

    edges: list[dict[int, int]] = [{} for _ in blocks]
    for v in range(n):
        cv = comp[v]
        adj = edges[cv]
        for e in range(off[v], off[v + 1]):
            cw = comp[dst[e]]
            if cw != cv:
                adj[cw] = adj.get(cw, 0) + ref_w[e]
    return CondensedGraph(graph, blocks, edges, comp)


def _columns(cg: CondensedGraph) -> tuple[list[int], list[int], list[int]]:
    """Unwrapped length, depth and wrapped reference count per supernode, in
    one pass in dependency order.

    A sink has length 1, depth 0 and no references; otherwise the length is
    the weighted sum over dependencies and the depth one more than theirs.  A
    removed supernode adds no depth level, and a reference to it counts its
    own weighted reference sum, so a kept supernode reads as if the removed
    ones were inlined into it.  Lengths do not depend on what is removed.
    """
    removed = cg.removed
    value = [1] * len(cg)
    depth = [0] * len(cg)
    refs = [0] * len(cg)
    carry = [1] * len(cg)  # what one reference to the supernode counts
    for i, adj in enumerate(cg.edges):
        if adj:
            value[i] = sum(w * value[j] for j, w in adj.items())
            depth[i] = max(depth[j] for j in adj) + (i not in removed)
            refs[i] = sum(w * carry[j] for j, w in adj.items())
            if i in removed:
                carry[i] = refs[i]
    return value, depth, refs


def unwrapped_lengths(cg: CondensedGraph) -> dict[str, int]:
    """Exact fully-expanded length per element: sinks count 1, otherwise the
    weighted sum over dependencies.  The same as ``_columns``' first column,
    without the other two, which ``rank`` does not read."""
    value = [1] * len(cg)
    for i, adj in enumerate(cg.edges):
        if adj:
            value[i] = sum(w * value[j] for j, w in adj.items())
    return cg.per_element(value)


def depths(cg: CondensedGraph) -> dict[str, int]:
    """Longest edge-path length down to a sink, not counting removed
    supernodes; sinks sit at depth 0."""
    return cg.per_element(_columns(cg)[1])


def log2_exact(x: int) -> float:
    """log2 of an exact big integer via its bit length and a 53-bit mantissa."""
    if x <= 0:
        raise ValueError("log2 needs a positive integer")
    bits = x.bit_length()
    if bits <= 53:
        return math.log2(x)
    shift = bits - 53
    return math.log2(x >> shift) + shift


def float_sum(xs) -> float:
    """The floats added one by one, left to right.  Builtin `sum` does so up
    to Python 3.11 but compensates floats from 3.12, which moves the last
    bits of scores and fits; this gives the same bits on every Python."""
    return reduce(operator.add, xs, 0.0)


class NodeMetrics(NamedTuple):
    name: str
    kind: str
    generated: bool
    wrapped_tokens: int | None
    wrapped_refs: int
    unwrapped: int
    log2_unwrapped: float
    depth: int


def node_metrics(graph: DepGraph, cg: CondensedGraph | None = None) -> dict[str, NodeMetrics]:
    """Per-element metrics over the condensed graph (cycle members share values).

    Unwrapped length, depth and ``wrapped_refs`` come from one pass over the
    supernodes, which reads through removed ones when ``cg`` is filtered;
    removed elements are absent from the result.
    """
    if cg is None:
        cg = condense_scc(graph)
    unwrapped, depth, refs = _columns(cg)
    out: dict[str, NodeMetrics] = {}
    for v, c in enumerate(cg.comp_of):
        if c < 0:
            continue
        name = graph.sorted_names[v]
        sig, body = graph.tokens_sig[v], graph.tokens_body[v]
        u = unwrapped[c]
        out[name] = NodeMetrics(
            name=name,
            kind=graph.kinds[v],
            generated=graph.generated[v],
            wrapped_tokens=None if sig is None and body is None else (sig or 0) + (body or 0),
            wrapped_refs=refs[c],
            unwrapped=u,
            log2_unwrapped=log2_exact(u),
            depth=depth[c],
        )
    return out


def split_unwrapped(graph: DepGraph, cg: CondensedGraph) -> dict[str, tuple[int, int]]:
    """(signature, body) unwrapped lengths per element, in name order.

    Each side sums reference weight times the target's full unwrapped length;
    references inside the element's own component are dropped, matching the
    condensation's treatment of self-loops.  ``cg`` must be the unfiltered
    condensation of ``graph``.
    """
    value = list(unwrapped_lengths(cg).values())  # name order is index order
    if len(value) != len(graph):
        raise ValueError("split_unwrapped needs an unfiltered condensation")
    comp, off, dst, sig_w, body_w = cg.comp_of, graph.off, graph.dst, graph.sig_w, graph.body_w
    out: dict[str, tuple[int, int]] = {}
    for v, name in enumerate(graph.sorted_names):
        own = comp[v]
        sig = body = 0
        for e in range(off[v], off[v + 1]):
            t = dst[e]
            if comp[t] != own:
                sig += sig_w[e] * value[t]
                body += body_w[e] * value[t]
        out[name] = (sig, body)
    return out


class HistogramBin(NamedTuple):
    lo: float
    hi: float
    count: int


def histogram(values, bin_width: float) -> list[HistogramBin]:
    """Fixed-width bins [lo, lo+width) aligned on 0; total count equals len(values)."""
    if not 0 < bin_width < math.inf:
        raise ValueError("bin width must be positive and finite")
    counts: dict[int, int] = {}
    for v in values:
        q = v / bin_width
        if not math.isfinite(q):
            raise ValueError(f"value {v} is too large for bin width {bin_width}")
        idx = math.floor(q)
        counts[idx] = counts.get(idx, 0) + 1
    return [
        HistogramBin(i * bin_width, (i + 1) * bin_width, counts[i])
        for i in sorted(counts)
    ]


class MedianCurve(NamedTuple):
    """Lower median of y at each distinct x, with per-x population counts."""

    xs: list[float]
    medians: list[float]
    counts: list[int]


def median_curve(points) -> MedianCurve:
    groups: dict[float, list[float]] = {}
    for x, y in points:
        groups.setdefault(float(x), []).append(float(y))
    xs = sorted(groups)
    medians = []
    counts = []
    for x in xs:
        ys = sorted(groups[x])
        medians.append(ys[(len(ys) - 1) // 2])
        counts.append(len(ys))
    return MedianCurve(xs, medians, counts)


class DegenerateFitError(ValueError):
    pass


class SlopeFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float
    x_lo: float
    x_hi: float
    points: int


def slope_fit(curve: MedianCurve, x_range: tuple[float, float] | None = None) -> SlopeFit:
    """Ordinary least squares over the curve, optionally restricted to an x window.

    Slope and intercept come from the classifier's ``_ols`` and r^2 is
    ``1 - _lack_of_fit``; fewer than 3 points or zero x variance is
    degenerate.
    """
    pairs = list(zip(curve.xs, curve.medians))
    if x_range is not None:
        lo, hi = x_range
        pairs = [(x, y) for x, y in pairs if lo <= x <= hi]
    if len(pairs) < 3:
        raise DegenerateFitError(f"need at least 3 points, got {len(pairs)}")
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    mx = math.fsum(xs) / len(xs)
    if float_sum((x - mx) ** 2 for x in xs) == 0:
        raise DegenerateFitError("x variance is zero")
    slope, intercept = _ols(xs, ys)
    r2 = 1.0 - _lack_of_fit(xs, ys)
    return SlopeFit(slope, intercept, r2, min(xs), max(xs), len(pairs))


# --- curve-shape classification ---

LABELS = (
    "Linear", "Flat", "Degenerate", "Logarithmic", "Concave", "Exponential",
    "DoublyExponential",
)


class ClassifyConfig(NamedTuple):
    """Thresholds for curve labeling.

    A curve is Degenerate when its x values are effectively bounded: fewer
    than ``min_distinct_x`` distinct values, or a total x span below
    ``min_x_span`` (absolute units; 0 disables the span rule).
    """

    min_distinct_x: int = 8
    flat_slope: float = 0.05
    min_x_span: float = 0.0


def _ols(xs: list[float], ys: list[float]) -> tuple[float, float]:
    mx = math.fsum(xs) / len(xs)  # statistics.fmean, to the last bit
    my = math.fsum(ys) / len(ys)
    sxx = float_sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 0.0, my
    slope = float_sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return slope, my - slope * mx


def _sse(ys: list[float], preds: list[float]) -> float:
    return float_sum((y - p) ** 2 for y, p in zip(ys, preds))


def _lack_of_fit(us: list[float], vs: list[float]) -> float:
    """Normalized residual of the OLS line v ~ u (this is 1 - r^2)."""
    a, b = _ols(us, vs)
    sse = _sse(vs, [a * u + b for u in us])
    mv = math.fsum(vs) / len(vs)
    ssv = float_sum((v - mv) ** 2 for v in vs)
    if ssv == 0.0:
        return 0.0 if sse == 0.0 else math.inf
    return sse / ssv


def classify_relationship(curve: MedianCurve, cfg: ClassifyConfig = ClassifyConfig()) -> str:
    """Label a median curve by its best-fitting growth shape.

    Each candidate model straightens the curve into its own coordinate space
    (log or sqrt on x for sub-linear shapes, iterated log on y for explosive
    ones) and is fitted there by least squares.  All five fits spend the same
    two parameters, so the AIC comparison reduces to the normalized residual
    in the straightened space; scoring there instead of on the raw data keeps
    explosive curves from drowning the comparison in overflow-scale errors.
    Ties break alphabetically, so labels are deterministic.
    """
    xs, ys = curve.xs, curve.medians
    if len(set(xs)) < cfg.min_distinct_x:
        return "Degenerate"
    if cfg.min_x_span > 0.0 and max(xs) - min(xs) < cfg.min_x_span:
        return "Degenerate"
    slope, _ = _ols(xs, ys)
    if abs(slope) < cfg.flat_slope:
        return "Flat"

    # y-shift so the smallest value maps to ln(1) = 0 and both log models
    # stay finite
    shift = 1.0 - min(ys)
    ly = [math.log(y + shift) for y in ys]
    lly = [math.log1p(v) for v in ly]  # ly >= 0, so this stays finite
    scores = {
        "Linear": _lack_of_fit(xs, ys),
        "Logarithmic": _lack_of_fit([math.log1p(x) for x in xs], ys),
        "Concave": _lack_of_fit([math.sqrt(max(x, 0.0)) for x in xs], ys),
        "Exponential": _lack_of_fit(xs, ly),
        "DoublyExponential": _lack_of_fit(xs, lly),
    }
    return min(scores, key=lambda k: (scores[k], k))


# Predicted median-curve shapes per macro regime: (log2 unwrapped vs depth,
# wrapped vs depth, log2 unwrapped vs wrapped).  Sets list the labels the
# classifier can legitimately produce for that prediction; the quadratic
# wrapped-vs-depth shape has no label of its own and lands on Exponential or
# Linear depending on range.
REGIME_TABLE: dict[str, tuple[set[str], set[str], set[str]]] = {
    "abelian-log-density": ({"Linear"}, {"Flat", "Linear"}, {"Degenerate", "Linear"}),
    "abelian-power-sums": ({"Linear"}, {"Flat"}, {"Degenerate"}),
    "abelian-double-log": ({"Exponential"}, {"DoublyExponential"}, {"Logarithmic"}),
    "free-polynomial": ({"Degenerate"}, {"Degenerate"}, {"Logarithmic"}),
    "free-probabilistic": ({"Linear"}, {"Exponential", "Linear"}, {"Concave"}),
}


class RegimeVerdict(NamedTuple):
    labels: tuple[str, str, str]
    matches: list[str]


def regime_classify(
    unwrapped_vs_depth: MedianCurve,
    wrapped_vs_depth: MedianCurve,
    unwrapped_vs_wrapped: MedianCurve,
    cfg: ClassifyConfig = ClassifyConfig(),
) -> RegimeVerdict:
    """Classify the three standard curves and report every matching regime row."""
    labels = (
        classify_relationship(unwrapped_vs_depth, cfg),
        classify_relationship(wrapped_vs_depth, cfg),
        classify_relationship(unwrapped_vs_wrapped, cfg),
    )
    matches = [
        regime
        for regime, expected in REGIME_TABLE.items()
        if all(lab in exp for lab, exp in zip(labels, expected))
    ]
    return RegimeVerdict(labels, matches)


# --- macro-set filtering ---


class _FilterPolicy(NamedTuple):
    mode: str
    percentile: float | None = None
    kinds: frozenset[str] | None = None
    names: frozenset[str] | None = None


class FilterPolicy(_FilterPolicy):
    """Which non-sink elements to remove; every pass then reads through them.

    mode "indegree_percentile": remove the bottom `percentile` percent by
    distinct-dependent count.  mode "kind": keep only elements whose kind is
    listed.  mode "explicit": remove exactly `names`.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> FilterPolicy:
        policy = super().__new__(cls, *args, **kwargs)
        if policy.mode not in ("indegree_percentile", "kind", "explicit"):
            raise ValueError(f"unknown filter mode {policy.mode!r}")
        if policy.mode == "indegree_percentile" and not (
            policy.percentile is not None and 0 <= policy.percentile <= 100
        ):
            raise ValueError("percentile must lie in [0, 100]")
        if policy.mode == "kind" and not policy.kinds:
            raise ValueError("kind filter needs at least one kind to keep")
        if policy.mode == "explicit" and policy.names is None:
            raise ValueError("explicit filter needs a name set")
        return policy


def filter_macro_set(cg: CondensedGraph, policy: FilterPolicy) -> CondensedGraph:
    """Apply a removal policy to the supernodes ``cg`` keeps.

    The result shares ``cg``'s blocks and edges; its removed set is the union
    of ``cg``'s and the policy's, so filters chain.  Sinks cannot be removed,
    which leaves a kept supernode a sink exactly when it has no edges.
    """
    non_sinks = [i for i in range(len(cg)) if not cg.is_sink(i) and i not in cg.removed]
    if policy.mode == "explicit":
        remove = set()
        for name in policy.names:
            if name not in cg.node_of:
                raise ValueError(f"unknown element {name!r}")
            i = cg.node_of[name]
            if cg.is_sink(i):
                raise ValueError(f"cannot remove sink element {cg.label(i)!r}")
            remove.add(i)
    elif policy.mode == "kind":
        remove = {
            i for i in non_sinks
            if not any(cg.graph.kinds[v] in policy.kinds for v in cg.blocks[i])
        }
    else:
        degs = cg.in_degrees()
        ranked = sorted(non_sinks, key=lambda i: (degs[i], cg.label(i)))
        cut = math.floor(len(ranked) * policy.percentile / 100.0)
        remove = set(ranked[:cut])
    comp_of = [-1 if c in remove else c for c in cg.comp_of]
    return CondensedGraph(cg.graph, cg.blocks, cg.edges, comp_of, cg.removed | remove)
