"""Compression-driven interest scores and the biased random-walk ranking.

The walk follows dependency edges with probability alpha and teleports in
proportion to a per-node interest weight otherwise; sink nodes always
teleport.  Every teleport lands by the same weights, so the stationary mass
is y / sum(y), where y = alpha P^T y + j0 (Langville & Meyer 2004).  The
condensation numbers components in dependency order, so `pagerank` solves
that system in one pass from dependents down to sinks, block by block (Del
Corso, Gulli & Romani 2005): an element outside a cycle is final once its
dependents have pushed their mass, and only a component with an edge inside
it is swept to the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analytics import CondensedGraph, condense_scc, split_unwrapped
from .corpus import DepGraph

J0_FLOOR = 1e-9


@dataclass(frozen=True)
class RankParams:
    alpha: float = 0.85
    beta: float = 0.5
    tolerance: float = 1e-12
    max_iterations: int = 10_000

    def __post_init__(self) -> None:
        if not 0 <= self.alpha < 1:
            raise ValueError("alpha must lie in [0, 1)")
        if not 0 <= self.beta <= 1:
            raise ValueError("beta must lie in [0, 1]")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class ElementSplit:
    """Wrapped/unwrapped lengths of one element, split into signature and body."""

    wrapped_sig: int | None
    wrapped_body: int | None
    unwrapped_sig: int
    unwrapped_body: int
    has_body: bool


class MalformedElementError(ValueError):
    pass


def element_splits(
    graph: DepGraph, cg: CondensedGraph, wrapped_metric: str = "tokens"
) -> dict[str, ElementSplit]:
    """Assemble per-element split lengths; `wrapped_metric` is "tokens" (stored
    token counts, None when absent) or "refs" (outgoing reference weight)."""
    if wrapped_metric not in ("tokens", "refs"):
        raise ValueError(f"unknown wrapped metric {wrapped_metric!r}")
    out: dict[str, ElementSplit] = {}
    for v, (name, (u_sig, u_body)) in enumerate(split_unwrapped(graph, cg).items()):
        if wrapped_metric == "tokens":
            w_sig, w_body = graph.tokens_sig[v], graph.tokens_body[v]
        else:
            w_sig, w_body = (sum(ws[graph.off[v]:graph.off[v + 1]]) or None
                             for ws in (graph.sig_w, graph.body_w))
        out[name] = ElementSplit(w_sig, w_body, u_sig, u_body, graph.has_body(v))
    return out


@dataclass(frozen=True)
class CompressionScores:
    t0: float | None  # whole-element expansion ratio; None when wrapped length unknown
    i0: float  # body-to-signature wrapped ratio; 0 for bodiless elements
    j0: float  # convex mix of the min-max normalized ratios, floored above zero


def _min_max(values: dict[str, float]) -> dict[str, float]:
    lo = min(values.values(), default=0.0)
    hi = max(values.values(), default=0.0)
    if hi == lo:
        return {k: 0.0 for k in values}
    return {k: (v - lo) / (hi - lo) for k, v in values.items()}


def compression_scores(
    splits: dict[str, ElementSplit],
    beta: float = 0.5,
) -> dict[str, CompressionScores]:
    """T0, I0, and the mixed teleport weight J0 for every element."""
    t0: dict[str, float | None] = {}
    i0: dict[str, float] = {}
    for name, sp in splits.items():
        wrapped = (sp.wrapped_sig or 0) + (sp.wrapped_body or 0)
        if wrapped == 0:
            t0[name] = None
        else:
            t0[name] = (sp.unwrapped_sig + sp.unwrapped_body) / wrapped
        if not sp.has_body or not sp.wrapped_body:
            i0[name] = 0.0
        elif not sp.wrapped_sig:
            raise MalformedElementError(
                f"element {name!r} has a body but zero wrapped signature"
            )
        else:
            i0[name] = sp.wrapped_body / sp.wrapped_sig

    t0_norm = _min_max({k: v for k, v in t0.items() if v is not None})
    i0_norm = _min_max(i0)
    out: dict[str, CompressionScores] = {}
    for name in splits:
        j0 = beta * t0_norm.get(name, 0.0) + (1 - beta) * i0_norm.get(name, 0.0)
        out[name] = CompressionScores(t0[name], i0[name], max(j0, J0_FLOOR))
    return out


def alt_deductive_scores(splits: dict[str, ElementSplit]) -> dict[str, float | None]:
    """Unwrapped body-to-signature ratio, the footnote alternative to I0.

    Bodiless elements score 0; an element whose signature expands to nothing
    cannot form the ratio and scores None.
    """
    out: dict[str, float | None] = {}
    for name, sp in splits.items():
        if not sp.has_body or sp.unwrapped_body == 0:
            out[name] = 0.0
        elif sp.unwrapped_sig == 0:
            out[name] = None
        else:
            out[name] = sp.unwrapped_body / sp.unwrapped_sig
    return out


@dataclass
class RankResult:
    pi: dict[str, float]
    iterations: int  # the pass, plus every repeated sweep of a cyclic component
    residual: float  # the most a cyclic component's leftover adds to y, over sum(j0)


class PowerIterationError(RuntimeError):
    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


def pagerank(
    graph: DepGraph,
    j0: dict[str, float],
    params: RankParams = RankParams(),
    cg: CondensedGraph | None = None,
) -> RankResult:
    """Stationary distribution of the interest-biased dependency walk.

    One pass over the condensation `cg` of `graph` (built here when not
    given), from the highest component down.  A sweep of a component moves
    the mass each member still holds into y and pushes alpha times it, split
    by edge weight, to the member's targets.  A component that mass flows
    back into is swept again until what the mass left in it could still add
    to y, at most 1 / (1 - alpha) times that mass, is below params.tolerance
    times sum(j0), so each pi value ends within about params.tolerance of the
    fixed point; PowerIterationError when that takes more than
    params.max_iterations sweeps.
    """
    names = graph.sorted_names
    if not names:
        raise ValueError("empty graph")
    todo = [j0[name] for name in names]  # mass each element has still to push
    if min(todo) <= 0:
        raise ValueError("teleport weights must be positive (J0 is floored above zero)")
    z = sum(todo)
    if cg is None:
        cg = condense_scc(graph)
    off, dst, ref_w, index, alpha = graph.off, graph.dst, graph.ref_w, graph.index, params.alpha
    y = [0.0] * len(names)

    def sweep(block: list[int]) -> None:
        for v in block:
            m, todo[v] = todo[v], 0.0
            y[v] += m
            lo, hi = off[v], off[v + 1]
            if lo < hi:
                ws = ref_w[lo:hi]
                f = alpha * m / sum(ws)
                for t, w in zip(dst[lo:hi], ws):
                    todo[t] += f * w

    iterations, residual = 1, 0.0
    for c in range(len(cg) - 1, -1, -1):
        block = [index[name] for name in cg.members[c]]
        sweep(block)
        if len(block) > 1 or todo[block[0]]:  # mass came back: a cycle
            for k in range(1, params.max_iterations + 1):
                # the most that the mass left could still add to y, over sum(j0)
                left = sum(todo[v] for v in block) / (z * (1 - alpha))
                if left < params.tolerance:
                    break
                if k == params.max_iterations:
                    raise PowerIterationError(k, left)
                sweep(block)
            iterations += k - 1
            residual = max(residual, left)
    total = sum(y)
    return RankResult({name: v / total for name, v in zip(names, y)}, iterations, residual)
