"""Compression-driven interest scores and the biased random-walk ranking.

The walk follows dependency edges with probability alpha and teleports in
proportion to a per-node interest weight otherwise; sink nodes always
teleport.  Stationary mass is found by power iteration on the exact column-
stochastic operator, so total probability is conserved to rounding.  The
operator's edge arrays are the graph's `edge_arrays`, built once per graph,
so a sweep over alpha reuses them.  numpy is imported on first array use,
by `pagerank` and those arrays only, so the score functions run without
loading it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analytics import CondensedGraph, split_unwrapped
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
    off = graph.off
    out: dict[str, ElementSplit] = {}
    for v, (name, (u_sig, u_body)) in enumerate(split_unwrapped(graph, cg).items()):
        if wrapped_metric == "tokens":
            w_sig, w_body = graph.tokens_sig[v], graph.tokens_body[v]
        else:
            w_sig, w_body = (sum(ws[off[v]:off[v + 1]]) or None
                             for ws in (graph.sig_w, graph.body_w))
        out[name] = ElementSplit(w_sig, w_body, u_sig, u_body, graph.has_body(v))
    return out


@dataclass(frozen=True)
class CompressionScores:
    t0: float | None  # whole-element expansion ratio; None when wrapped length unknown
    i0: float  # body-to-signature wrapped ratio; 0 for bodiless elements
    j0: float  # convex mix of the min-max normalized ratios, floored above zero


def _min_max(values: dict[str, float]) -> dict[str, float]:
    if not values:
        return {}
    lo = min(values.values())
    hi = max(values.values())
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
    iterations: int
    residual: float
    residuals: tuple[float, ...] = ()


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
) -> RankResult:
    """Stationary distribution of the interest-biased dependency walk.

    Power iteration from the uniform distribution until the L1 residual drops
    below params.tolerance; raises PowerIterationError at the iteration cap.
    """
    names = graph.sorted_names
    n = len(names)
    if n == 0:
        raise ValueError("empty graph")
    import numpy as np

    weights = np.array([j0[name] for name in names], dtype=np.float64)
    if np.any(weights <= 0):
        raise ValueError("teleport weights must be positive (J0 is floored above zero)")
    teleport = weights / weights.sum()
    src, dst, w, out_total = graph.edge_arrays
    is_sink = out_total == 0
    safe_total = np.where(is_sink, 1.0, out_total)

    pi = np.full(n, 1.0 / n, dtype=np.float64)
    alpha = params.alpha
    history: list[float] = []
    for it in range(1, params.max_iterations + 1):
        flow = pi / safe_total
        nxt = alpha * np.bincount(dst, weights=w * flow[src], minlength=n)
        sink_mass = float(pi[is_sink].sum())
        nxt += teleport * ((1 - alpha) * (1.0 - sink_mass) + sink_mass)
        residual = float(np.abs(nxt - pi).sum())
        history.append(residual)
        nxt /= nxt.sum()
        pi = nxt
        if residual < params.tolerance:
            return RankResult(dict(zip(names, pi.tolist())), it, residual, tuple(history))
    raise PowerIterationError(params.max_iterations, residual)
