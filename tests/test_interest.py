"""Tests for compression scores and the interest-biased walk."""

import math

import numpy as np
import pytest

from macrolab.analytics import condense_scc
from macrolab.corpus import DepGraph, GraphNode
from macrolab.interest import (
    J0_FLOOR,
    MalformedElementError,
    PowerIterationError,
    RankParams,
    alt_deductive_scores,
    compression_scores,
    element_splits,
    pagerank,
)


def transition_probability(v, u, graph, j0, params=RankParams()):
    """Walk probability of stepping u -> v; sinks teleport with probability 1."""
    z = sum(j0.values())
    if z <= 0:
        raise ValueError("teleport weights must have positive total")
    refs = graph.nodes[u].merged_refs()
    total = sum(refs.values())
    if total == 0:
        return j0[v] / z
    return params.alpha * refs.get(v, 0) / total + (1 - params.alpha) * j0[v] / z


def dense_transition_matrix(graph, j0, params=RankParams()):
    """Full column-stochastic matrix P[v, u], one entry at a time: the
    O(n^2 * degree) oracle that `pagerank` is checked against."""
    names = graph.sorted_names
    n = len(names)
    P = np.zeros((n, n), dtype=np.float64)
    for ui, u in enumerate(names):
        for vi, v in enumerate(names):
            P[vi, ui] = transition_probability(v, u, graph, j0, params)
    return names, P


def node(name, sig=None, body=None, kind="definition", tok_sig=None, tok_body=None):
    return GraphNode(
        name=name,
        kind=kind,
        generated=False,
        token_count_signature=tok_sig,
        token_count_body=tok_body,
        sig_refs=dict(sig or {}),
        body_refs=dict(body or {}),
    )


def sink(name):
    return GraphNode(
        name=name, kind="primitive", generated=False,
        token_count_signature=None, token_count_body=None,
    )


def ratio_graph():
    """u cites two mid-size elements in its body and the primitive twice in
    its signature, tuned so the whole-element expansion ratio is exactly 10
    and the body-to-signature ratio exactly 2 under the reference metric."""
    return DepGraph([
        node("u", sig={"p": 2}, body={"y": 2, "z": 2}),
        node("y", sig={"p": 15}),
        node("z", sig={"p": 14}),
        sink("p"),
    ])


def ratio_splits(metric="refs"):
    graph = ratio_graph()
    return element_splits(graph, condense_scc(graph), wrapped_metric=metric)


# --- splits and scores ---


def test_element_splits_reference_metric():
    splits = ratio_splits()
    u = splits["u"]
    assert (u.wrapped_sig, u.wrapped_body) == (2, 4)
    assert (u.unwrapped_sig, u.unwrapped_body) == (2, 58)
    assert u.has_body
    y = splits["y"]
    assert (y.wrapped_sig, y.wrapped_body) == (15, None)
    assert not y.has_body


def test_element_splits_token_metric():
    graph = DepGraph([
        node("a", sig={"p": 2}, tok_sig=3, tok_body=6, body={"p": 1}),
        sink("p"),
    ])
    splits = element_splits(graph, condense_scc(graph), wrapped_metric="tokens")
    a = splits["a"]
    assert (a.wrapped_sig, a.wrapped_body) == (3, 6)
    with pytest.raises(ValueError):
        element_splits(graph, condense_scc(graph), wrapped_metric="chars")


def test_expansion_ratio_and_body_ratio_known_values():
    scores = compression_scores(ratio_splits())
    assert scores["u"].t0 == pytest.approx(10.0)
    assert scores["u"].i0 == pytest.approx(2.0)


def test_expansion_ratio_is_one_for_primitive_only_elements():
    graph = DepGraph([node("a", sig={"p": 5}), sink("p")])
    scores = compression_scores(element_splits(graph, condense_scc(graph), "refs"))
    assert scores["a"].t0 == pytest.approx(1.0)


def test_sinks_have_no_expansion_ratio():
    scores = compression_scores(ratio_splits())
    assert scores["p"].t0 is None
    assert scores["p"].i0 == 0.0
    assert scores["p"].j0 == J0_FLOOR


def test_bodiless_elements_score_zero_body_ratio():
    scores = compression_scores(ratio_splits())
    assert scores["y"].i0 == 0.0
    assert scores["z"].i0 == 0.0


def test_body_without_signature_is_malformed():
    graph = DepGraph([node("b", body={"p": 3}), sink("p")])
    splits = element_splits(graph, condense_scc(graph), "refs")
    with pytest.raises(MalformedElementError):
        compression_scores(splits)


def test_mixing_weight_selects_the_ratio():
    graph = DepGraph([
        node("u", sig={"p": 2}, body={"y": 2, "z": 2}),
        node("y", sig={"p": 15}),
        node("z", sig={"p": 14}),
        node("w", sig={"y": 1, "p": 1}),  # expansion ratio 8, between z and u
        sink("p"),
    ])
    splits = element_splits(graph, condense_scc(graph), "refs")
    only_t0 = compression_scores(splits, beta=1.0)
    only_i0 = compression_scores(splits, beta=0.0)
    # u holds the largest expansion ratio and the only positive body ratio.
    assert only_t0["u"].j0 == pytest.approx(1.0)
    assert only_i0["u"].j0 == pytest.approx(1.0)
    # w's mid-scale expansion ratio only counts when beta weighs t0.
    assert only_t0["w"].j0 == pytest.approx(7.0 / 9.0)
    assert only_i0["w"].j0 == J0_FLOOR
    # y sits at the bottom of both scales and lands on the floor.
    assert only_t0["y"].j0 == J0_FLOOR
    assert only_i0["y"].j0 == J0_FLOOR


def test_teleport_weights_are_floored():
    graph = DepGraph([node("a", sig={"p": 1, "q": 1}), sink("p"), sink("q")])
    scores = compression_scores(element_splits(graph, condense_scc(graph), "refs"))
    assert all(s.j0 >= J0_FLOOR for s in scores.values())


def test_alt_deductive_scores():
    alt = alt_deductive_scores(ratio_splits())
    assert alt["u"] == pytest.approx(29.0)
    assert alt["y"] == 0.0
    graph = DepGraph([node("b", body={"p": 3}), sink("p")])
    splits = element_splits(graph, condense_scc(graph), "refs")
    assert alt_deductive_scores(splits)["b"] is None


# --- transition probabilities ---


def j0_for(graph, beta=0.5):
    return {
        name: s.j0
        for name, s in compression_scores(
            element_splits(graph, condense_scc(graph), "refs"), beta=beta
        ).items()
    }


def test_sinks_teleport_completely():
    graph = ratio_graph()
    j0 = j0_for(graph)
    z = sum(j0.values())
    for v in graph.sorted_names:
        assert transition_probability(v, "p", graph, j0) == pytest.approx(j0[v] / z)


def test_single_edge_column_mixes_walk_and_teleport():
    graph = DepGraph([node("a", sig={"p": 4}), sink("p")])
    j0 = {"a": 1.0, "p": 1.0}
    params = RankParams(alpha=0.85)
    assert transition_probability("p", "a", graph, j0, params) == pytest.approx(
        0.85 + 0.15 / 2
    )
    assert transition_probability("a", "a", graph, j0, params) == pytest.approx(0.15 / 2)


def test_transition_columns_sum_to_one():
    graph = ratio_graph()
    j0 = j0_for(graph)
    for u in graph.sorted_names:
        total = sum(transition_probability(v, u, graph, j0) for v in graph.sorted_names)
        assert total == pytest.approx(1.0)


def test_transition_rejects_non_positive_teleport_total():
    graph = ratio_graph()
    with pytest.raises(ValueError):
        transition_probability("u", "p", graph, {n: 0.0 for n in graph.sorted_names})


# --- stationary ranking ---


def stationary_by_solve(graph, j0, params=RankParams()):
    """Oracle: solve (P - I) pi = 0 with the probability constraint directly."""
    names, P = dense_transition_matrix(graph, j0, params)
    n = len(names)
    A = P - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    return dict(zip(names, pi))


def test_pagerank_matches_a_direct_linear_solve():
    graph = ratio_graph()
    j0 = j0_for(graph)
    result = pagerank(graph, j0)
    direct = stationary_by_solve(graph, j0)
    for name in graph.sorted_names:
        assert result.pi[name] == pytest.approx(direct[name], abs=1e-9)


def test_pagerank_two_cycle_is_symmetric():
    graph = DepGraph([
        node("a", sig={"b": 1}),
        node("b", sig={"a": 1}),
    ])
    result = pagerank(graph, {"a": 1.0, "b": 1.0})
    assert result.pi["a"] == pytest.approx(0.5)
    assert result.pi["b"] == pytest.approx(0.5)


def test_pagerank_distribution_properties():
    graph = ratio_graph()
    result = pagerank(graph, j0_for(graph))
    assert sum(result.pi.values()) == pytest.approx(1.0)
    assert all(p > 0 for p in result.pi.values())
    # an acyclic graph is solved in the one pass, with no sweep
    assert result.iterations == 1
    assert result.residual == 0.0


def test_pagerank_tolerance_bounds_the_distance_to_the_fixed_point():
    # s keeps alpha of its mass on each step, so y_s = j0_s / (1 - alpha); a
    # small j0_s puts the whole shortfall of a stopped sweep on one entry
    graph = DepGraph([node("s", sig={"s": 1}), sink("p")])
    j0 = {"s": 1e-9, "p": 1.0}
    y_s = 1e-9 / (1 - 0.85)
    exact = {"s": y_s / (y_s + 1), "p": 1 / (y_s + 1)}
    for tol in (1e-6, 1e-9, 1e-12):
        result = pagerank(graph, j0, RankParams(tolerance=tol))
        assert 0 < result.residual < tol
        assert all(abs(result.pi[k] - exact[k]) <= tol for k in exact)


def test_pagerank_walkless_limit_is_the_teleport_distribution():
    graph = ratio_graph()
    j0 = j0_for(graph)
    z = sum(j0.values())
    result = pagerank(graph, j0, RankParams(alpha=0.0))
    for name, weight in j0.items():
        assert result.pi[name] == pytest.approx(weight / z, abs=1e-12)


def test_pagerank_is_invariant_under_teleport_rescaling():
    graph = ratio_graph()
    j0 = j0_for(graph)
    scaled = {k: 10.0 * v for k, v in j0.items()}
    a = pagerank(graph, j0)
    b = pagerank(graph, scaled)
    for name in graph.sorted_names:
        assert a.pi[name] == pytest.approx(b.pi[name], abs=1e-12)


def test_pagerank_error_paths():
    # only a component with an edge inside it is swept: a two-cycle, and a
    # singleton that references itself
    for cyclic in ([node("a", sig={"b": 1}), node("b", sig={"a": 1, "p": 1}), sink("p")],
                   [node("s", sig={"s": 1, "p": 1}), sink("p")]):
        graph = DepGraph(cyclic)
        with pytest.raises(PowerIterationError) as err:
            pagerank(graph, j0_for(graph), RankParams(max_iterations=1, tolerance=1e-15))
        assert err.value.iterations == 1
        assert err.value.residual > 0
    graph = ratio_graph()
    with pytest.raises(ValueError):
        pagerank(DepGraph([]), {})
    with pytest.raises(ValueError):
        pagerank(graph, {n: 0.0 for n in graph.sorted_names})


def test_rank_params_validation():
    with pytest.raises(ValueError):
        RankParams(alpha=1.0)
    with pytest.raises(ValueError):
        RankParams(alpha=-0.1)
    with pytest.raises(ValueError):
        RankParams(beta=1.5)
    for bad in ({"max_iterations": 0}, {"max_iterations": -1}, {"tolerance": 0.0},
                {"tolerance": -1e-9}, {"tolerance": float("nan")}):
        with pytest.raises(ValueError):
            RankParams(**bad)
    RankParams(alpha=0.0, beta=0.0)
    RankParams(alpha=0.999, beta=1.0)
