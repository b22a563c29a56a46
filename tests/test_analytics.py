"""Tests for condensation, metrics, curve fitting, classification, filtering.

Classifier checks use curves that straighten exactly in the intended model
space (zero residual there, positive residual everywhere else), so the
expected label is forced rather than frozen from a previous run.
"""

import math
import struct
from statistics import fmean

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macrolab.analytics import (
    ClassifyConfig,
    DegenerateFitError,
    FilterPolicy,
    LABELS,
    REGIME_TABLE,
    MedianCurve,
    SlopeFit,
    classify_relationship,
    condense_scc,
    depths,
    filter_macro_set,
    histogram,
    log2_exact,
    median_curve,
    node_metrics,
    regime_classify,
    slope_fit,
    split_unwrapped,
    unwrapped_lengths,
)
from macrolab.corpus import DepGraph, GraphNode
from macrolab.synth import synth_flat, synth_hierarchy, synth_mixed
from test_stream import replay_below


def plain_node(name, refs=None, kind="definition", body_refs=None, tokens=None):
    return GraphNode(
        name=name,
        kind=kind,
        generated=False,
        token_count_signature=tokens,
        token_count_body=None,
        sig_refs=dict(refs or {}),
        body_refs=dict(body_refs or {}),
    )


def sink(name):
    return GraphNode(
        name=name, kind="primitive", generated=False,
        token_count_signature=None, token_count_body=None,
    )


def chain_graph():
    """a -> b (weight 2) -> p (weight 3)."""
    return DepGraph([
        plain_node("a", {"b": 2}),
        plain_node("b", {"p": 3}),
        sink("p"),
    ])


def curve(xs, fn):
    return median_curve([(x, fn(x)) for x in xs])


# --- condensation ---


def test_condense_acyclic_graph_is_isomorphic():
    graph = chain_graph()
    cg = condense_scc(graph)
    assert sorted(cg.blocks) == [[0], [1], [2]]  # a, b, p
    a, b, p = cg.node_of["a"], cg.node_of["b"], cg.node_of["p"]
    assert cg.edges[a] == {b: 2}
    assert cg.edges[b] == {p: 3}
    assert cg.edges[p] == {}
    assert cg.is_sink(p) and not cg.is_sink(a)


def test_condense_topo_puts_dependents_first():
    cg = condense_scc(chain_graph())
    for i in range(len(cg)):
        for j in cg.edges[i]:
            assert j < i


def test_condense_merges_cycles_and_drops_self_loops():
    graph = DepGraph([
        plain_node("c", {"d": 1, "p": 2}),
        plain_node("d", body_refs={"c": 1, "p": 1}),
        sink("p"),
    ])
    cg = condense_scc(graph)
    assert len(cg) == 2
    comp = cg.node_of["c"]
    assert cg.node_of["d"] == comp
    assert cg.blocks[comp] == [0, 1]  # c, d
    assert cg.edges[comp] == {cg.node_of["p"]: 3}
    assert node_metrics(graph, cg)["c"].wrapped_refs == 3


def test_condense_in_degrees_count_distinct_dependents():
    cg = condense_scc(chain_graph())
    degs = cg.in_degrees()
    assert degs[cg.node_of["a"]] == 0
    assert degs[cg.node_of["b"]] == 1
    assert degs[cg.node_of["p"]] == 1


# --- unwrapped lengths and depths ---


def test_unwrapped_of_sinks_is_one():
    cg = condense_scc(chain_graph())
    assert unwrapped_lengths(cg)["p"] == 1


def test_unwrapped_multiplies_along_chains():
    cg = condense_scc(chain_graph())
    lengths = unwrapped_lengths(cg)
    assert lengths["b"] == 3
    assert lengths["a"] == 6


def test_unwrapped_shared_by_cycle_members():
    graph = DepGraph([
        plain_node("c", {"d": 1, "p": 2}),
        plain_node("d", body_refs={"c": 1, "p": 1}),
        sink("p"),
    ])
    lengths = unwrapped_lengths(condense_scc(graph))
    assert lengths["c"] == lengths["d"] == 3


def test_unwrapped_hierarchy_is_a_power():
    cg = condense_scc(synth_hierarchy(2, 30))
    lengths = unwrapped_lengths(cg)
    assert lengths["level30"] == 2**30
    assert lengths["level00"] == 1


def test_depths_follow_longest_paths():
    graph = DepGraph([
        plain_node("top", {"mid": 1, "p": 1}),
        plain_node("mid", {"p": 2}),
        sink("p"),
    ])
    depth = depths(condense_scc(graph))
    assert depth == {"p": 0, "mid": 1, "top": 2}


def test_log2_exact_small_and_large():
    assert log2_exact(1) == 0.0
    assert log2_exact(2**200) == 200.0
    approx = 105 * math.log2(10)
    assert abs(log2_exact(10**105) - approx) < 1e-9 * approx
    with pytest.raises(ValueError):
        log2_exact(0)


# --- node metrics and splits ---


def test_node_metrics_values():
    graph = DepGraph([
        plain_node("a", {"p": 3}, tokens=7),
        sink("p"),
    ])
    metrics = node_metrics(graph)
    a = metrics["a"]
    assert a.wrapped_tokens == 7
    assert a.wrapped_refs == 3
    assert a.unwrapped == 3
    assert a.log2_unwrapped == pytest.approx(math.log2(3))
    assert a.depth == 1
    p = metrics["p"]
    assert p.wrapped_tokens is None
    assert p.unwrapped == 1 and p.depth == 0


def test_node_metrics_skips_inlined_elements():
    graph = chain_graph()
    cg = condense_scc(graph)
    filtered = filter_macro_set(cg, FilterPolicy("explicit", names=frozenset({"b"})))
    metrics = node_metrics(graph, filtered)
    assert set(metrics) == {"a", "p"}
    assert metrics["a"].unwrapped == 6


def test_split_unwrapped_expands_targets_fully():
    graph = DepGraph([
        plain_node("u", {"p": 2}, body_refs={"y": 2, "z": 2}),
        plain_node("y", {"p": 15}),
        plain_node("z", {"p": 14}),
        sink("p"),
    ])
    splits = split_unwrapped(graph, condense_scc(graph))
    assert splits["u"] == (2, 58)
    assert splits["y"] == (15, 0)


def test_split_unwrapped_drops_in_component_references():
    graph = DepGraph([
        plain_node("c", {"d": 1, "p": 2}),
        plain_node("d", body_refs={"c": 1, "p": 1}),
        sink("p"),
    ])
    splits = split_unwrapped(graph, condense_scc(graph))
    assert splits["c"] == (2, 0)
    assert splits["d"] == (0, 1)


# --- histograms, medians, slope fits ---


def test_histogram_bins_values():
    bins = histogram([0.0, 0.0, 1.0], 1.0)
    assert [(b.lo, b.hi, b.count) for b in bins] == [(0.0, 1.0, 2), (1.0, 2.0, 1)]


def test_histogram_handles_negative_values():
    bins = histogram([-0.5], 1.0)
    assert [(b.lo, b.hi, b.count) for b in bins] == [(-1.0, 0.0, 1)]


def test_histogram_single_value_and_validation():
    bins = histogram([5.0], 10.0)
    assert [(b.lo, b.hi, b.count) for b in bins] == [(0.0, 10.0, 1)]
    # a zero, infinite or NaN width, and a width so small that value / width
    # overflows to inf, are errors rather than a NaN edge or an OverflowError
    for values, width in (([1.0], 0.0), ([1.0], math.inf), ([1.0], math.nan), ([1], 1e-320)):
        with pytest.raises(ValueError):
            histogram(values, width)
    assert histogram([0], 1e-320)[0].count == 1


def test_median_curve_uses_the_lower_median():
    c = median_curve([(1, 3), (1, 1), (2, 5)])
    assert c.xs == [1.0, 2.0]
    assert c.medians == [1.0, 5.0]
    assert c.counts == [2, 1]


def test_slope_fit_exact_line():
    fit = slope_fit(median_curve([(0, 0), (1, 1), (2, 2)]))
    assert fit.slope == pytest.approx(1.0)
    assert fit.intercept == pytest.approx(0.0)
    assert fit.r_squared == pytest.approx(1.0)
    assert (fit.x_lo, fit.x_hi, fit.points) == (0.0, 2.0, 3)


def test_slope_fit_window_restricts_points():
    c = median_curve([(x, (10.0 if x > 4 else 1.0) * x) for x in range(8)])
    full = slope_fit(c)
    window = slope_fit(c, x_range=(0.0, 4.0))
    assert window.slope == pytest.approx(1.0)
    assert window.points == 5
    assert full.slope > window.slope


def test_slope_fit_rejects_degenerate_inputs():
    with pytest.raises(DegenerateFitError):
        slope_fit(median_curve([(0, 0), (1, 1)]))
    with pytest.raises(DegenerateFitError):
        slope_fit(median_curve([(1, 0), (1, 1), (1, 2)]))


def oracle_slope_fit(curve, x_range=None):
    """Least squares written out in full: the reference slope_fit must match bit for bit."""
    pairs = list(zip(curve.xs, curve.medians))
    if x_range is not None:
        lo, hi = x_range
        pairs = [(x, y) for x, y in pairs if lo <= x <= hi]
    if len(pairs) < 3:
        raise DegenerateFitError(f"need at least 3 points, got {len(pairs)}")
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    mx = fmean(xs)
    my = fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise DegenerateFitError("x variance is zero")
    sxy = sum((x - mx) * (y - my) for x, y in pairs)
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in pairs)
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return SlopeFit(slope, intercept, r2, min(xs), max(xs), len(pairs))


def fit_outcome(fit, curve, x_range):
    """A fit's fields as raw float bits, or the DegenerateFitError message."""
    try:
        result = fit(curve, x_range)
    except DegenerateFitError as exc:
        return "degenerate: " + str(exc)
    return [struct.pack("<d", v) for v in (result.slope, result.intercept, result.r_squared,
                                           result.x_lo, result.x_hi)] + [result.points]


# Repeated x values and y values that fmean cannot reproduce exactly, next to
# floats bounded so that no sum overflows: fmean([0.1] * 3) != 0.1, so three
# x of 0.1 still fit.
FIT_VALUES = st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5, 7.0]) | st.floats(-1e6, 1e6)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(FIT_VALUES, FIT_VALUES), max_size=8),
       st.none() | st.tuples(FIT_VALUES, FIT_VALUES))
@example([(0.1, 0.0), (0.1, 1.0), (0.1, 2.0)], None)  # a fit, not zero x variance
@example([(0.1, 0.1), (0.2, 0.1), (0.3, 0.1)], None)
@example([(1.0, 5.0), (1.0, 5.0), (1.0, 5.0)], None)
@example([(0.0, 1.0), (1.0, 2.0)], None)
@example([(0.0, 1.0), (1.0, 2.0), (2.0, 4.0), (3.0, 3.0)], (0.5, 2.5))
def test_slope_fit_matches_the_stand_alone_fit_bit_for_bit(points, x_range):
    curve = MedianCurve([x for x, _ in points], [y for _, y in points], [1] * len(points))
    assert fit_outcome(slope_fit, curve, x_range) == fit_outcome(oracle_slope_fit, curve, x_range)


# --- curve classification ---


def test_classify_linear():
    assert classify_relationship(curve(range(20), lambda x: 3.0 * x + 2.0)) == "Linear"


def test_classify_quadratic_lands_on_linear():
    # No quadratic label exists; over moderate ranges the straight line wins.
    assert classify_relationship(curve(range(1, 13), lambda x: float(x * x))) == "Linear"


def test_classify_logarithmic():
    assert (
        classify_relationship(curve(range(30), lambda x: 4.0 * math.log1p(x) + 1.0))
        == "Logarithmic"
    )


def test_classify_concave_root():
    assert classify_relationship(curve(range(30), math.sqrt)) == "Concave"


def test_classify_exponential():
    assert (
        classify_relationship(curve(range(15), lambda x: math.exp(0.5 * x)))
        == "Exponential"
    )


def test_classify_doubly_exponential():
    assert (
        classify_relationship(
            curve(range(20), lambda x: math.exp(math.exp(x / 4.0) - 1.0))
        )
        == "DoublyExponential"
    )


def test_classify_flat_constant():
    assert classify_relationship(curve(range(10), lambda x: 5.0)) == "Flat"
    assert classify_relationship(curve(range(10), lambda x: 5.0 + 0.04 * x)) == "Flat"


def test_classify_degenerate_on_few_x_values():
    assert classify_relationship(curve(range(7), lambda x: 100.0 * x)) == "Degenerate"


def test_classify_degenerate_on_narrow_span():
    xs = [i / 2.0 for i in range(8)]
    narrow = median_curve([(x, 10.0 * x) for x in xs])
    assert classify_relationship(narrow) == "Linear"
    cfg = ClassifyConfig(min_x_span=5.0)
    assert classify_relationship(narrow, cfg) == "Degenerate"


def test_regime_table_labels_are_known():
    assert set(REGIME_TABLE) == {
        "abelian-log-density",
        "abelian-power-sums",
        "abelian-double-log",
        "free-polynomial",
        "free-probabilistic",
    }
    for expected in REGIME_TABLE.values():
        for column in expected:
            assert column <= set(LABELS)


def test_regime_classify_double_log_signature():
    verdict = regime_classify(
        curve(range(15), lambda x: math.exp(0.5 * x)),
        curve(range(20), lambda x: math.exp(math.exp(x / 4.0) - 1.0)),
        curve(range(30), lambda x: 4.0 * math.log1p(x) + 1.0),
    )
    assert verdict.labels == ("Exponential", "DoublyExponential", "Logarithmic")
    assert verdict.matches == ["abelian-double-log"]


def test_regime_classify_polynomial_signature():
    degenerate = curve(range(3), lambda x: float(x))
    verdict = regime_classify(
        degenerate,
        degenerate,
        curve(range(30), lambda x: 4.0 * math.log1p(x) + 1.0),
    )
    assert verdict.labels[0] == "Degenerate"
    assert verdict.matches == ["free-polynomial"]


def test_regime_classify_log_density_signature():
    verdict = regime_classify(
        curve(range(20), lambda x: 3.0 * x + 2.0),
        curve(range(10), lambda x: 5.0),
        curve(range(4), lambda x: float(x)),
    )
    assert verdict.labels == ("Linear", "Flat", "Degenerate")
    assert set(verdict.matches) == {"abelian-log-density", "abelian-power-sums"}


# --- filtering ---


def test_inline_reroutes_with_multiplied_weights():
    # a -2-> b -3-> p with b removed reads as a -6-> p
    graph = chain_graph()
    cg = condense_scc(graph)
    filtered = filter_macro_set(cg, FilterPolicy("explicit", names=frozenset({"b"})))
    a, p = filtered.node_of["a"], filtered.node_of["p"]
    assert node_metrics(graph, filtered)["a"].wrapped_refs == 6
    assert filtered.in_degrees()[p] == 1 and filtered.in_degrees()[a] == 0
    assert unwrapped_lengths(filtered)["a"] == 6
    assert depths(filtered)["a"] == 1


def test_inline_refuses_to_remove_sinks():
    cg = condense_scc(chain_graph())
    with pytest.raises(ValueError, match="cannot remove sink element 'p'"):
        filter_macro_set(cg, FilterPolicy("explicit", names=frozenset({"p"})))


def test_percentile_zero_keeps_everything():
    cg = condense_scc(synth_mixed(40, 6, 3, 3, seed=1))
    filtered = filter_macro_set(cg, FilterPolicy("indegree_percentile", percentile=0.0))
    assert filtered.blocks == cg.blocks
    assert filtered.edges == cg.edges
    assert filtered.removed == frozenset()


def test_percentile_hundred_leaves_only_sinks():
    graph = synth_mixed(40, 6, 3, 3, seed=1)
    cg = condense_scc(graph)
    filtered = filter_macro_set(cg, FilterPolicy("indegree_percentile", percentile=100.0))
    assert all(filtered.is_sink(i) for i in range(len(filtered)) if i not in filtered.removed)
    assert all(m.wrapped_refs == 0 and m.depth == 0 for m in node_metrics(graph, filtered).values())
    assert all(v == 1 for v in unwrapped_lengths(filtered).values())


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("percentile", [20.0, 50.0, 80.0])
def test_percentile_filter_invariants(seed, percentile):
    graph = synth_mixed(60, 8, 4, 3, seed=seed)
    cg = condense_scc(graph)
    before_unwrapped = unwrapped_lengths(cg)
    before_depth = depths(cg)
    before_out = {name: m.wrapped_refs for name, m in node_metrics(graph, cg).items()}
    filtered = filter_macro_set(
        cg, FilterPolicy("indegree_percentile", percentile=percentile)
    )
    after_unwrapped = unwrapped_lengths(filtered)
    after_depth = depths(filtered)
    after_out = node_metrics(graph, filtered)
    assert len(filtered.node_of) < len(cg.node_of)
    for name in filtered.node_of:
        assert after_unwrapped[name] == before_unwrapped[name]
        assert after_depth[name] <= before_depth[name]
        assert after_out[name].wrapped_refs >= before_out[name]


def test_kind_filter_keeps_listed_kinds_and_sinks():
    graph = DepGraph([
        plain_node("thm", {"dfn": 1}, kind="theorem"),
        plain_node("dfn", {"p": 2}, kind="definition"),
        sink("p"),
    ])
    cg = condense_scc(graph)
    filtered = filter_macro_set(cg, FilterPolicy("kind", kinds=frozenset({"definition"})))
    assert set(filtered.node_of) == {"dfn", "p"}
    graph_kinds = filter_macro_set(cg, FilterPolicy("kind", kinds=frozenset({"theorem"})))
    assert set(graph_kinds.node_of) == {"thm", "p"}


def test_explicit_filter_validates_names():
    cg = condense_scc(chain_graph())
    filtered = filter_macro_set(cg, FilterPolicy("explicit", names=frozenset({"b"})))
    assert set(filtered.node_of) == {"a", "p"}
    with pytest.raises(ValueError):
        filter_macro_set(cg, FilterPolicy("explicit", names=frozenset({"ghost"})))


def test_filter_policy_validation():
    with pytest.raises(ValueError):
        FilterPolicy("nonsense")
    with pytest.raises(ValueError):
        FilterPolicy("indegree_percentile", percentile=101.0)
    with pytest.raises(ValueError):
        FilterPolicy("kind")
    with pytest.raises(ValueError):
        FilterPolicy("explicit")


# --- synthetic corpora ---


def test_synth_hierarchy_shape():
    graph = synth_hierarchy(3, 4)
    assert len(graph) == 5
    assert graph.nodes["level4"].sig_refs == {"level3": 3}
    assert graph.nodes["level0"].kind == "primitive"


def test_synth_flat_depth_one_with_varied_sizes():
    graph = synth_flat(10, 50, 8, seed=3)
    cg = condense_scc(graph)
    depth = depths(cg)
    sizes = set()
    for name, node in graph.nodes.items():
        if node.kind == "definition":
            assert depth[name] == 1
            sizes.add(sum(node.sig_refs.values()))
    assert len(sizes) > 3


def test_synth_mixed_is_deterministic_and_acyclic():
    a = synth_mixed(50, 6, 4, 3, seed=9)
    b = synth_mixed(50, 6, 4, 3, seed=9)
    assert [(n, g.sig_refs, g.body_refs) for n, g in a.nodes.items()] == [
        (n, g.sig_refs, g.body_refs) for n, g in b.nodes.items()
    ]
    cg = condense_scc(a)
    assert len(cg) == len(a)  # acyclic by construction, nothing merged
    c = synth_mixed(50, 6, 4, 3, seed=10)
    assert [(n, g.sig_refs) for n, g in a.nodes.items()] != [
        (n, g.sig_refs) for n, g in c.nodes.items()
    ]


def mixed_oracle(n, prims, fanout, max_weight, seed):
    """(kind, sig_refs, body_refs) per node index, replaying the stream with
    Floyd's subset sampling in its textbook form: for j = N - m + 1, ..., N
    draw t from 1..j, and take j if t is already chosen, else t."""
    below = replay_below(seed, b"synth_mixed")
    name = f"node{{:0{len(str(n - 1))}d}}".format
    nodes = []
    for i in range(n - prims):
        span = n - i - 1
        m = min(below(fanout) + 1, span)
        chosen = []
        for j in range(span - m + 1, span + 1):
            t = below(j) + 1
            chosen.append(j if t in chosen else t)
        refs = [(name(i + t), below(max_weight) + 1, below(2)) for t in sorted(chosen)]
        sig = {t: w for t, w, side in refs if side == 0}
        body = {t: w for t, w, side in refs if side == 1}
        if not sig:
            first = min(body)
            sig[first] = body.pop(first)
        nodes.append(("theorem" if below(2) else "definition", sig, body))
    nodes += [("primitive", {}, {})] * prims
    return nodes


@pytest.mark.parametrize("n, prims, fanout, max_weight, seed", [
    (120, 10, 6, 4, 3), (30, 3, 40, 2, 0), (50, 49, 1, 1, 2**64 - 1)])
def test_synth_mixed_replays_its_stream(n, prims, fanout, max_weight, seed):
    graph = synth_mixed(n, prims, fanout, max_weight, seed)
    got = [(nd.kind, nd.sig_refs, nd.body_refs) for nd in graph.nodes.values()]
    assert got == mixed_oracle(n, prims, fanout, max_weight, seed)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 60).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n - 1), st.integers(1, n), st.integers(1, 6),
    st.integers(0, 2**64 - 1))))
def test_synth_mixed_invariants(args):
    n, prims, fanout, max_weight, seed = args
    graph = synth_mixed(n, prims, fanout, max_weight, seed)
    assert len(graph) == n
    assert [nd.sig_refs for nd in graph.nodes.values()] == [
        nd.sig_refs for nd in synth_mixed(n, prims, fanout, max_weight, seed).nodes.values()]
    index = {name: i for i, name in enumerate(graph.sorted_names)}
    for i, (name, nd) in enumerate(graph.nodes.items()):
        refs = {**nd.sig_refs, **nd.body_refs}
        if i >= n - prims:
            assert nd.kind == "primitive" and not refs
            continue
        assert nd.kind in ("definition", "theorem")
        assert nd.sig_refs and not nd.sig_refs.keys() & nd.body_refs.keys()
        assert 1 <= len(refs) <= min(fanout, n - i - 1)
        assert all(index[t] > i and 1 <= w <= max_weight for t, w in refs.items())


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_hierarchy(1, 5)
    with pytest.raises(ValueError):
        synth_flat(0, 5, 3, seed=0)
    with pytest.raises(ValueError):
        synth_mixed(5, 5, 3, 3, seed=0)
    for n_primitives in (0, -3):  # the last other node would have nothing to reference
        with pytest.raises(ValueError):
            synth_mixed(10, n_primitives, 3, 3, seed=0)
