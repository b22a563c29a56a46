"""The integer-indexed graph engine against the name-keyed code it replaced.

The oracle below is that code: it rebuilds adjacency from each node's merged
reference dict, condenses with the same iterative Tarjan (1972) pass on
name-keyed dicts, and builds the PageRank edge lists node by node (Page et
al., 1999).  Hypothesis draws small graphs with cycles, self-loops, names on
both the signature and the body side, and synthetic sinks for undeclared
names; every analytics result must match the oracle exactly, and PageRank
to 1e-12.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from macrolab.analytics import (
    FilterPolicy,
    condense_scc,
    depths,
    filter_macro_set,
    split_unwrapped,
    unwrapped_lengths,
)
from macrolab.corpus import DepGraph, GraphNode
from macrolab.interest import RankParams, pagerank

# --- the name-keyed oracle ---


@dataclass
class OracleCondensed:
    members: list[tuple[str, ...]]
    edges: list[dict[int, int]]
    node_of: dict[str, int]
    topo: list[int]
    kinds: list[tuple[str, ...]]


def oracle_condense(nodes: dict[str, GraphNode]) -> OracleCondensed:
    names = sorted(nodes)
    index_of = {name: i for i, name in enumerate(names)}
    adj = []
    for name in names:
        merged = nodes[name].merged_refs()
        adj.append([(index_of[t], w) for t, w in sorted(merged.items())])

    n = len(names)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    comp_members: list[list[int]] = []
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while ei < len(adj[v]):
                w = adj[v][ei][0]
                ei += 1
                if index[w] == -1:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                members = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp[u] = len(comp_members)
                    members.append(u)
                    if u == v:
                        break
                comp_members.append(members)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    members = [tuple(sorted(names[u] for u in ms)) for ms in comp_members]
    kinds = [tuple(sorted({nodes[name].kind for name in m})) for m in members]
    edges: list[dict[int, int]] = [{} for _ in comp_members]
    for v in range(n):
        for w, weight in adj[v]:
            if comp[w] != comp[v]:
                edges[comp[v]][comp[w]] = edges[comp[v]].get(comp[w], 0) + weight
    node_of = {names[v]: comp[v] for v in range(n)}
    return OracleCondensed(members, edges, node_of, list(range(len(members) - 1, -1, -1)),
                           kinds)


def oracle_values(cg: OracleCondensed, sink_value, combine) -> dict[str, int]:
    value = [0] * len(cg.members)
    for i in reversed(cg.topo):
        value[i] = combine(cg.edges[i], value) if cg.edges[i] else sink_value
    return {name: value[i] for name, i in cg.node_of.items()}


def oracle_unwrapped(cg: OracleCondensed) -> dict[str, int]:
    return oracle_values(cg, 1, lambda adj, val: sum(w * val[j] for j, w in adj.items()))


def oracle_depths(cg: OracleCondensed) -> dict[str, int]:
    return oracle_values(cg, 0, lambda adj, val: 1 + max(val[j] for j in adj))


def oracle_split(nodes: dict[str, GraphNode], cg: OracleCondensed) -> dict:
    unwrapped = oracle_unwrapped(cg)
    out = {}
    for name in sorted(nodes):
        own = cg.node_of[name]
        out[name] = tuple(
            sum(w * unwrapped[t] for t, w in refs.items() if cg.node_of[t] != own)
            for refs in (nodes[name].sig_refs, nodes[name].body_refs)
        )
    return out


def oracle_filter(cg: OracleCondensed, policy: FilterPolicy) -> OracleCondensed:
    n = len(cg.members)
    non_sinks = [i for i in range(n) if cg.edges[i]]
    if policy.mode == "explicit":
        remove = {cg.node_of[name] for name in policy.names}
    elif policy.mode == "kind":
        remove = {i for i in non_sinks if not any(k in policy.kinds for k in cg.kinds[i])}
    else:
        degs = [0] * n
        for adj in cg.edges:
            for j in adj:
                degs[j] += 1
        ranked = sorted(non_sinks, key=lambda i: (degs[i], cg.members[i][0]))
        remove = set(ranked[:int(len(ranked) * policy.percentile / 100.0)])
    if any(not cg.edges[i] for i in remove):
        raise ValueError("cannot remove a sink")
    expanded: dict[int, dict[int, int]] = {}
    for i in reversed(cg.topo):
        if i in remove:
            out: dict[int, int] = {}
            for j, w in cg.edges[i].items():
                for t, wt in (expanded[j] if j in remove else {j: 1}).items():
                    out[t] = out.get(t, 0) + w * wt
            expanded[i] = out
    keep = [i for i in range(n) if i not in remove]
    new_index = {old: new for new, old in enumerate(keep)}
    edges = []
    for i in keep:
        adj: dict[int, int] = {}
        for j, w in cg.edges[i].items():
            for t, wt in (expanded[j] if j in remove else {j: 1}).items():
                adj[new_index[t]] = adj.get(new_index[t], 0) + w * wt
        edges.append(adj)
    return OracleCondensed(
        [cg.members[i] for i in keep], edges,
        {name: new_index[i] for name, i in cg.node_of.items() if i in new_index},
        [new_index[i] for i in cg.topo if i in new_index], [cg.kinds[i] for i in keep])


def oracle_pagerank(nodes: dict[str, GraphNode], j0: dict[str, float],
                    params: RankParams) -> dict[str, float]:
    names = sorted(nodes)
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    weights = np.array([j0[name] for name in names], dtype=np.float64)
    teleport = weights / weights.sum()
    srcs, dsts, ws = [], [], []
    out_total = np.zeros(n, dtype=np.float64)
    for name in names:
        refs = nodes[name].merged_refs()
        out_total[index[name]] = sum(refs.values())
        for t in sorted(refs):
            srcs.append(index[name])
            dsts.append(index[t])
            ws.append(refs[t])
    src, dst, w = np.array(srcs, dtype=np.int64), np.array(dsts, dtype=np.int64), np.array(ws)
    is_sink = out_total == 0
    safe_total = np.where(is_sink, 1.0, out_total)
    pi = np.full(n, 1.0 / n)
    for _ in range(params.max_iterations):
        nxt = params.alpha * np.bincount(dst, weights=w * (pi / safe_total)[src], minlength=n)
        sink_mass = float(pi[is_sink].sum())
        nxt += teleport * ((1 - params.alpha) * (1.0 - sink_mass) + sink_mass)
        residual = float(np.abs(nxt - pi).sum())
        pi = nxt / nxt.sum()
        if residual < params.tolerance:
            break
    return {name: float(pi[index[name]]) for name in names}


# --- random graphs ---

POOL = [f"n{i}" for i in range(9)]
KINDS = ("definition", "theorem", "structure", "inductive")


@st.composite
def graphs(draw) -> list[GraphNode]:
    declared = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=len(POOL),
                             unique=True))
    refs = st.dictionaries(st.sampled_from(POOL), st.integers(1, 4), max_size=4)
    nodes = []
    for name in declared:
        primitive = draw(st.integers(0, 4)) == 0
        sig, body = ({}, {}) if primitive else (draw(refs), draw(refs))
        tokens = st.none() | st.integers(1, 30)
        nodes.append(GraphNode(name, "primitive" if primitive else draw(st.sampled_from(KINDS)),
                               False, draw(tokens), draw(tokens), sig, body))
    referenced = {t for nd in nodes for t in (*nd.sig_refs, *nd.body_refs)}
    nodes += [GraphNode(name, "synthetic", True, None, None)
              for name in sorted(referenced - set(declared))]
    return nodes


def assert_same(cg, oracle: OracleCondensed) -> None:
    assert cg.members == oracle.members
    assert cg.edges == oracle.edges
    assert list(map(list, cg.edges)) == list(map(list, oracle.edges))  # insertion order too
    assert all(j < i for i, adj in enumerate(cg.edges) for j in adj)  # dependency order
    assert cg.kinds == oracle.kinds
    assert cg.node_of == oracle.node_of
    assert list(cg.node_of) == list(oracle.node_of)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_condensation_and_lengths_match_the_oracle(nodes):
    graph = DepGraph(nodes)
    by_name = {nd.name: nd for nd in nodes}
    cg, oracle = condense_scc(graph), oracle_condense(by_name)
    assert_same(cg, oracle)
    assert unwrapped_lengths(cg) == oracle_unwrapped(oracle)
    assert depths(cg) == oracle_depths(oracle)
    assert split_unwrapped(graph, cg) == oracle_split(by_name, oracle)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_filters_match_the_oracle(nodes, data):
    graph = DepGraph(nodes)
    cg, oracle = condense_scc(graph), oracle_condense({nd.name: nd for nd in nodes})
    non_sinks = sorted(name for name, i in oracle.node_of.items() if oracle.edges[i])
    policies = [
        FilterPolicy("indegree_percentile", percentile=data.draw(st.floats(0, 100))),
        FilterPolicy("kind", kinds=frozenset(data.draw(
            st.lists(st.sampled_from(KINDS), min_size=1, unique=True)))),
        FilterPolicy("explicit", names=frozenset(data.draw(
            st.lists(st.sampled_from(non_sinks), unique=True) if non_sinks else st.just([])))),
    ]
    for policy in policies:
        filtered, expected = filter_macro_set(cg, policy), oracle_filter(oracle, policy)
        assert_same(filtered, expected)
        assert unwrapped_lengths(filtered) == oracle_unwrapped(expected)
        assert depths(filtered) == oracle_depths(expected)


@settings(max_examples=100, deadline=None)
@given(graphs(), st.data())
def test_pagerank_matches_the_oracle(nodes, data):
    graph = DepGraph(nodes)
    names = graph.sorted_names
    j0 = {name: data.draw(st.floats(1e-9, 1.0)) for name in names}
    for alpha in (0.0, 0.5, 0.85):
        # Both sides stop short of the fixed point: pagerank by up to its
        # tolerance, and a power iteration stopped at residual r by up to
        # r * alpha / (1 - alpha).  So both run to 1e-14 before they are
        # compared at 1e-12.
        params = RankParams(alpha=alpha, tolerance=1e-14)
        pi = pagerank(graph, j0, params).pi
        expected = oracle_pagerank({nd.name: nd for nd in nodes}, j0, params)
        assert list(pi) == names
        assert all(abs(pi[name] - expected[name]) <= 1e-12 for name in names)

