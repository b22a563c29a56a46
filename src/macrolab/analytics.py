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
from dataclasses import dataclass
from functools import cached_property
from statistics import fmean

from .corpus import DepGraph


@dataclass
class CondensedGraph:
    """Acyclic condensation: supernode -> sorted member names, summed edges.

    Supernode numbers are a dependency order: every edge i -> j has j < i, so
    a loop over ``range(len(cg))`` meets each dependency before its
    dependents.  ``comp_of[v]`` is the supernode of the graph's element ``v``
    (-1 once it is inlined away) and ``names`` the graph's sorted names;
    ``node_of``, the same map keyed by name, is built from them on first use.
    """

    members: list[tuple[str, ...]]
    edges: list[dict[int, int]]
    kinds: list[tuple[str, ...]]
    names: list[str]
    comp_of: list[int]

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def node_of(self) -> dict[str, int]:
        return self.per_element(range(len(self.members)))

    def is_sink(self, i: int) -> bool:
        return not self.edges[i]

    def out_weight(self, i: int) -> int:
        return sum(self.edges[i].values())

    def in_degrees(self) -> list[int]:
        degs = [0] * len(self.members)
        for adj in self.edges:
            for j in adj:
                degs[j] += 1
        return degs

    def label(self, i: int) -> str:
        return self.members[i][0]

    def per_element(self, values: list) -> dict:
        """Name -> the value of its supernode, in name order, inlined elements left out."""
        return {name: values[c] for name, c in zip(self.names, self.comp_of) if c >= 0}


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
    comp_members: list[list[int]] = []

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
                        comp[u] = len(comp_members)
                        members.append(u)
                        if u == v:
                            break
                    comp_members.append(members)
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]

    names, kinds = graph.sorted_names, graph.kinds
    members = [tuple(names[u] for u in sorted(ms)) for ms in comp_members]
    comp_kinds = [tuple(sorted({kinds[u] for u in ms})) for ms in comp_members]
    edges: list[dict[int, int]] = [{} for _ in comp_members]
    for v in range(n):
        cv = comp[v]
        adj = edges[cv]
        for e in range(off[v], off[v + 1]):
            cw = comp[dst[e]]
            if cw != cv:
                adj[cw] = adj.get(cw, 0) + ref_w[e]
    return CondensedGraph(members, edges, comp_kinds, names, comp)


def unwrapped_lengths(cg: CondensedGraph) -> dict[str, int]:
    """Exact fully-expanded length per element: sinks count 1, otherwise the
    weighted sum over dependencies."""
    value = [0] * len(cg)
    for i in range(len(cg)):
        if not cg.edges[i]:
            value[i] = 1
        else:
            value[i] = sum(w * value[j] for j, w in cg.edges[i].items())
    return cg.per_element(value)


def depths(cg: CondensedGraph) -> dict[str, int]:
    """Longest edge-path length down to a sink; sinks sit at depth 0."""
    depth = [0] * len(cg)
    for i in range(len(cg)):
        if cg.edges[i]:
            depth[i] = 1 + max(depth[j] for j in cg.edges[i])
    return cg.per_element(depth)


def log2_exact(x: int) -> float:
    """log2 of an exact big integer via its bit length and a 53-bit mantissa."""
    if x <= 0:
        raise ValueError("log2 needs a positive integer")
    bits = x.bit_length()
    if bits <= 53:
        return math.log2(x)
    shift = bits - 53
    return math.log2(x >> shift) + shift


@dataclass
class NodeMetrics:
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

    When ``cg`` is a filtered condensation, elements that were inlined away
    are simply absent from the result.
    """
    if cg is None:
        cg = condense_scc(graph)
    unwrapped = unwrapped_lengths(cg)
    depth = depths(cg)
    out: dict[str, NodeMetrics] = {}
    for v, c in enumerate(cg.comp_of):
        if c < 0:
            continue
        name = graph.sorted_names[v]
        sig, body = graph.tokens_sig[v], graph.tokens_body[v]
        u = unwrapped[name]
        out[name] = NodeMetrics(
            name=name,
            kind=graph.kinds[v],
            generated=graph.generated[v],
            wrapped_tokens=None if sig is None and body is None else (sig or 0) + (body or 0),
            wrapped_refs=cg.out_weight(c),
            unwrapped=u,
            log2_unwrapped=log2_exact(u),
            depth=depth[name],
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


@dataclass(frozen=True)
class HistogramBin:
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


@dataclass
class MedianCurve:
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


@dataclass(frozen=True)
class SlopeFit:
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
    mx = fmean(xs)
    if sum((x - mx) ** 2 for x in xs) == 0:
        raise DegenerateFitError("x variance is zero")
    slope, intercept = _ols(xs, ys)
    r2 = 1.0 - _lack_of_fit(xs, ys)
    return SlopeFit(slope, intercept, r2, min(xs), max(xs), len(pairs))


# --- curve-shape classification ---

LABELS = (
    "Linear", "Flat", "Degenerate", "Logarithmic", "Concave", "Exponential",
    "DoublyExponential",
)


@dataclass(frozen=True)
class ClassifyConfig:
    """Thresholds for curve labeling.

    A curve is Degenerate when its x values are effectively bounded: fewer
    than ``min_distinct_x`` distinct values, or a total x span below
    ``min_x_span`` (absolute units; 0 disables the span rule).
    """

    min_distinct_x: int = 8
    flat_slope: float = 0.05
    min_x_span: float = 0.0


def _ols(xs: list[float], ys: list[float]) -> tuple[float, float]:
    mx = fmean(xs)
    my = fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 0.0, my
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return slope, my - slope * mx


def _sse(ys: list[float], preds: list[float]) -> float:
    return sum((y - p) ** 2 for y, p in zip(ys, preds))


def _lack_of_fit(us: list[float], vs: list[float]) -> float:
    """Normalized residual of the OLS line v ~ u (this is 1 - r^2)."""
    a, b = _ols(us, vs)
    sse = _sse(vs, [a * u + b for u in us])
    mv = fmean(vs)
    ssv = sum((v - mv) ** 2 for v in vs)
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


@dataclass
class RegimeVerdict:
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


@dataclass(frozen=True)
class FilterPolicy:
    """Which non-sink elements to inline away.

    mode "indegree_percentile": remove the bottom `percentile` percent by
    distinct-dependent count.  mode "kind": keep only elements whose kind is
    listed.  mode "explicit": remove exactly `names`.
    """

    mode: str
    percentile: float | None = None
    kinds: frozenset[str] | None = None
    names: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("indegree_percentile", "kind", "explicit"):
            raise ValueError(f"unknown filter mode {self.mode!r}")
        if self.mode == "indegree_percentile" and not (
            self.percentile is not None and 0 <= self.percentile <= 100
        ):
            raise ValueError("percentile must lie in [0, 100]")
        if self.mode == "kind" and not self.kinds:
            raise ValueError("kind filter needs at least one kind to keep")
        if self.mode == "explicit" and self.names is None:
            raise ValueError("explicit filter needs a name set")


def inline_nodes(cg: CondensedGraph, remove: set[int]) -> CondensedGraph:
    """Drop the given supernodes, rerouting every incoming edge through each
    removed node's outgoing edges with multiplied weights.

    Path weights into surviving nodes are preserved exactly, so unwrapped
    lengths never change; sinks cannot be removed.  One pass in dependency
    order merges each node's row in the new numbering: a kept node's row is
    its edge dict, a removed node's row its expansion, which its dependents
    read later.  Kept nodes keep their relative order, so the result is
    numbered in dependency order too.
    """
    for i in remove:
        if cg.is_sink(i):
            raise ValueError(f"cannot remove sink element {cg.label(i)!r}")

    keep = [i for i in range(len(cg)) if i not in remove]
    new_index = [-1] * len(cg)
    for new, old in enumerate(keep):
        new_index[old] = new
    rows: list[dict[int, int]] = []
    for i in range(len(cg)):
        adj: dict[int, int] = {}
        for j, w in cg.edges[i].items():
            if j in remove:
                for t, wt in rows[j].items():
                    adj[t] = adj.get(t, 0) + w * wt
            else:
                adj[new_index[j]] = adj.get(new_index[j], 0) + w
        rows.append(adj)
    members = [cg.members[i] for i in keep]
    kinds = [cg.kinds[i] for i in keep]
    edges = [rows[i] for i in keep]
    comp_of = [new_index[c] if c >= 0 else -1 for c in cg.comp_of]
    return CondensedGraph(members, edges, kinds, cg.names, comp_of)


def filter_macro_set(cg: CondensedGraph, policy: FilterPolicy) -> CondensedGraph:
    """Apply a removal policy and inline the removed elements."""
    non_sinks = [i for i in range(len(cg)) if not cg.is_sink(i)]
    if policy.mode == "explicit":
        remove = set()
        for name in policy.names:
            if name not in cg.node_of:
                raise ValueError(f"unknown element {name!r}")
            remove.add(cg.node_of[name])
    elif policy.mode == "kind":
        remove = {
            i for i in non_sinks
            if not any(k in policy.kinds for k in cg.kinds[i])
        }
    else:
        degs = cg.in_degrees()
        ranked = sorted(non_sinks, key=lambda i: (degs[i], cg.label(i)))
        cut = math.floor(len(ranked) * policy.percentile / 100.0)
        remove = set(ranked[:cut])
    return inline_nodes(cg, remove)
