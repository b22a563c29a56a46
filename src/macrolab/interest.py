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

from typing import NamedTuple

from .analytics import CondensedGraph, condense_scc, float_sum, split_unwrapped
from .corpus import DepGraph

J0_FLOOR = 1e-9


class _RankParams(NamedTuple):
    alpha: float = 0.85
    beta: float = 0.5
    tolerance: float = 1e-12
    max_iterations: int = 10_000


class RankParams(_RankParams):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RankParams:
        params = super().__new__(cls, *args, **kwargs)
        if not 0 <= params.alpha < 1:
            raise ValueError("alpha must lie in [0, 1)")
        if not 0 <= params.beta <= 1:
            raise ValueError("beta must lie in [0, 1]")
        if not params.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if params.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        return params


class ElementSplit(NamedTuple):
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
    unwrapped = split_unwrapped(graph, cg)
    off = graph.off
    if wrapped_metric == "tokens":
        wrapped = graph.tokens_sig, graph.tokens_body
    else:
        wrapped = ([sum(ws[lo:hi]) or None for lo, hi in zip(off, off[1:])]
                   for ws in (graph.sig_w, graph.body_w))
    has_body = map(graph.has_body, range(len(graph)))
    return dict(zip(unwrapped, map(ElementSplit._make, zip(
        *wrapped, *zip(*unwrapped.values()), has_body))))


class CompressionScores(NamedTuple):
    t0: float | None  # whole-element expansion ratio; None when wrapped length unknown
    i0: float  # body-to-signature wrapped ratio; 0 for bodiless elements
    j0: float  # convex mix of the min-max normalized ratios, floored above zero


def _min_max(values: list[float | None]) -> list[float]:
    """Each value scaled by the range of the values given, 0 for None or when
    they are all equal."""
    known = [v for v in values if v is not None]
    lo, hi = min(known, default=0.0), max(known, default=0.0)
    if hi == lo:
        return [0.0] * len(values)
    return [0.0 if v is None else (v - lo) / (hi - lo) for v in values]


def compression_scores(
    splits: dict[str, ElementSplit],
    beta: float = 0.5,
) -> dict[str, CompressionScores]:
    """T0, I0, and the mixed teleport weight J0 for every element."""
    t0: list[float | None] = []
    i0: list[float] = []
    for name, (w_sig, w_body, u_sig, u_body, has_body) in splits.items():
        wrapped = (w_sig or 0) + (w_body or 0)
        t0.append(None if wrapped == 0 else (u_sig + u_body) / wrapped)
        if not has_body or not w_body:
            i0.append(0.0)
        elif not w_sig:
            raise MalformedElementError(
                f"element {name!r} has a body but zero wrapped signature"
            )
        else:
            i0.append(w_body / w_sig)
    j0 = [max(beta * t + (1 - beta) * i, J0_FLOOR)
          for t, i in zip(_min_max(t0), _min_max(i0))]
    return dict(zip(splits, map(CompressionScores._make, zip(t0, i0, j0))))


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


class RankResult(NamedTuple):
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

    One pass over the blocks of the condensation `cg` of `graph` (built here
    when not given), from the highest component down.  A sweep of a block
    moves the mass each of its elements still holds into y and pushes alpha
    times it, split by edge weight, to the element's targets.  A block that
    mass flows back into is swept again until what the mass left in it could
    still add to y, at most 1 / (1 - alpha) times that mass, is below
    params.tolerance times sum(j0), so each pi value ends within about
    params.tolerance of the fixed point; PowerIterationError when that takes
    more than params.max_iterations sweeps.
    """
    names = graph.sorted_names
    if not names:
        raise ValueError("empty graph")
    todo = [j0[name] for name in names]  # mass each element has still to push
    if min(todo) <= 0:
        raise ValueError("teleport weights must be positive (J0 is floored above zero)")
    z = float_sum(todo)
    if cg is None:
        cg = condense_scc(graph)
    off, dst, ref_w, alpha = graph.off, graph.dst, graph.ref_w, params.alpha
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
    for block in reversed(cg.blocks):
        sweep(block)
        if len(block) > 1 or todo[block[0]]:  # mass came back: a cycle
            for k in range(1, params.max_iterations + 1):
                # the most that the mass left could still add to y, over sum(j0)
                left = float_sum(todo[v] for v in block) / (z * (1 - alpha))
                if left < params.tolerance:
                    break
                if k == params.max_iterations:
                    raise PowerIterationError(k, left)
                sweep(block)
            iterations += k - 1
            residual = max(residual, left)
    total = float_sum(y)
    return RankResult({name: v / total for name, v in zip(names, y)}, iterations, residual)
