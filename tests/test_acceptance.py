"""Acceptance suite: one test per headline guarantee of the library.

Every expected value below is either produced by an independent oracle
written in the tests (brute force, direct recurrence, dense linear
algebra) or is a closed-form constant checked against that oracle.  The
conftest hook prints a PASS/FAIL line per criterion.
"""

import csv
import math
import os
import time

import numpy as np
import pytest

from macrolab.analytics import (
    FilterPolicy,
    condense_scc,
    filter_macro_set,
    node_metrics,
    unwrapped_lengths,
)
from macrolab.cli import EXIT_OK, main
from macrolab.corpus import DepGraph, GraphNode
from macrolab.exprs import collect_elems, parse_expr
from macrolab.expansion import (
    expansion_function,
    expansion_profile,
    fit_parse_constant,
    gprime_length_free_lazy,
    recursive_parse_free,
    sampled_rates,
    smallest_linear_slope,
    verify_bounds,
)
from macrolab.families import FamilySpec, build_macro_family
from macrolab.interest import (
    RankParams,
    compression_scores,
    element_splits,
    pagerank,
)
from macrolab.monoid import Word, gprime_length
from macrolab.synth import synth_mixed
from test_interest import dense_transition_matrix

# --- 1: base-2 place notation, exact growth and two-sided bounds ---


def smallest_with_binary_digit_sum(target: int) -> int:
    m = 1
    while bin(m).count("1") != target:
        m += 1
    return m


def test_criterion_01_place_base_two_exact_profile():
    started = time.monotonic()
    M = build_macro_family(FamilySpec.place_notation(b=2, n=1, r_max=2**14))
    for s in range(1, 13):
        got = expansion_function(M, s, r_max=2**14)
        assert got.exact
        assert got.value == 2 ** (s + 1) - 2
        assert got.value == smallest_with_binary_digit_sum(s + 1) - 1
        assert 2 ** (s - 1) <= got.value <= 2 * 2**s
    assert time.monotonic() - started < 10.0


# --- 2: finite macro set {5 a1} grows linearly ---


def min_coins(x: int) -> int:
    return x // 5 + x % 5


def test_criterion_02_finite_family_linear_growth():
    M = build_macro_family(FamilySpec.finite([Word.from_multiplicities((5,))]))
    for s in range(1, 51):
        r = 0
        while min_coins(r + 1) <= s:
            r += 1
        got = expansion_function(M, s, r_max=400)
        assert got.exact
        assert got.value == r
        assert s <= got.value <= 5 * s
    assert expansion_function(M, 4, r_max=400).value == 8


# --- 3: every integer up to 1e5 is a sum of at most four squares ---


def test_criterion_03_four_squares_exhaustive():
    started = time.monotonic()
    limit = 10**5
    squares = [q * q for q in range(1, int(limit**0.5) + 1)]
    reach = np.zeros(limit + 1, dtype=bool)
    reach[0] = True
    history = []
    for _ in range(4):
        nxt = reach.copy()
        for q in squares:
            nxt[q:] |= reach[:-q]
        history.append(nxt)
        reach = nxt
    assert history[3].all()
    assert not history[2][7]

    M = build_macro_family(FamilySpec.waring(k=2, n=1, r_max=limit))
    got = expansion_function(M, 4, r_max=limit)
    assert not got.exact
    assert got.value == limit
    assert time.monotonic() - started < 60.0


# --- 4: double-log towers, budget recurrence and squeeze bounds ---


def tower_budgets(b: int, upto: int) -> list[int]:
    budgets = [b - 1]
    for k in range(1, upto + 1):
        budgets.append((b ** (b ** (k - 1) * (b - 1)) - 1) + budgets[-1])
    return budgets


def test_criterion_04_double_log_towers():
    budgets = tower_budgets(2, 4)
    assert budgets == [1, 2, 5, 20, 275]
    M = build_macro_family(FamilySpec.double_log(b=2, r_max=70000))
    for k, expected in enumerate(budgets):
        w = Word.from_multiplicities((2 ** (2**k) - 1,))
        assert gprime_length(w, M) == expected

    spec = FamilySpec.double_log(b=2, r_max=300)
    profile = expansion_profile(build_macro_family(spec), range(1, 6), r_max=300, spec=spec)
    report = verify_bounds(profile)
    assert report.all_passed
    assert report.constants["exponent_low"] == pytest.approx(2.0)
    assert report.constants["exponent_high"] == pytest.approx(3.0)
    c1, c2 = report.constants["c1"], report.constants["c2"]
    for row in report.rows:
        assert c1 * row.s**2 <= row.measured.value <= c2 * row.s**3


# --- 5: polynomial-density free families stay below the linear slope ---


def test_criterion_05_poly_density_linear_ceiling():
    d = smallest_linear_slope(2, 1.0, 1.0)
    assert d == 13
    assert 2.0**d > 4 * math.e * 3 * d**2
    assert 2.0 ** (d - 1) <= 4 * math.e * 3 * (d - 1) ** 2
    M = build_macro_family(FamilySpec.poly_density_free(c=1.0, p=1.0, n=2, r_max=60))
    for s in range(1, 5):
        got = expansion_function(M, s, r_max=60)
        assert got.exact
        assert got.value < d * s


# --- 6: probabilistic free families, Monte Carlo over 1000 words per radius ---


def test_criterion_06_probabilistic_monte_carlo():
    spec = FamilySpec.probabilistic_free(big_b=8.0, big_c=4.0, n=2, r_max=256, seed=11)
    M = build_macro_family(spec)
    rates = [sampled_rates(M, r, trials=1000, seed=11) for r in (64, 128, 256)]
    for sr in rates:
        assert sr.trials == 1000
        assert sr.halving_rate >= 0.99
        assert sr.parse_failures == 0
    K = fit_parse_constant(rates)
    assert K > 0.0
    for sr in rates:
        for count in sr.parse_counts:
            assert count <= K * math.log(sr.r) ** 2 + 1e-9

    rng = np.random.default_rng(11)
    for _ in range(40):
        length = int(rng.integers(1, 15))
        letters = tuple(int(x) for x in rng.integers(0, 2, size=length))
        _, count = recursive_parse_free(letters, M)
        assert count >= gprime_length_free_lazy(letters, M)


# --- 7: reference collection on the worked statement/proof pair ---


WORKED_SIG = (
    "(forallE (sort) (forallE (sort) "
    "(forallE (app (app (const And) (other)) (other)) (other))))"
)
WORKED_BODY = (
    "(lam (sort) (lam (sort) (lam (app (app (const And) (other)) (other)) "
    "(app (app (app (const And.right) (other)) (other)) (other)))))"
)


def test_criterion_07_reference_collection_worked_example():
    assert collect_elems(parse_expr(WORKED_SIG)) == {"Sort": 2, "And": 1}
    assert collect_elems(parse_expr(WORKED_BODY)) == {"Sort": 2, "And": 1, "And.right": 1}


# --- 8: synthetic hierarchy end to end through the analyze pipeline ---


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_criterion_08_synthetic_pipeline(tmp_path):
    synth_out = tmp_path / "synth"
    assert main(["synth", "--kind", "hierarchy", "--b", "2", "--height", "30",
                 "--out", str(synth_out)]) == EXIT_OK
    ana_out = tmp_path / "ana"
    assert main(["analyze", "--graph", str(synth_out / "graph.jsonl"),
                 "--full-unwrapped", "--out", str(ana_out)]) == EXIT_OK

    rows = {r["name"]: r for r in read_csv(ana_out / "metrics.csv")}
    top = rows["level30"]
    assert top["depth"] == "30"
    assert top["unwrapped"] == str(2**30)

    wrapped_curve = read_csv(ana_out / "curve_wrapped_vs_depth.csv")
    assert any(float(row["x"]) >= 1.0 for row in wrapped_curve)
    for row in wrapped_curve:
        if float(row["x"]) >= 1.0:
            assert float(row["median"]) == 2.0

    fit = read_csv(ana_out / "fit_log2_unwrapped_vs_depth.csv")[0]
    assert float(fit["slope"]) == pytest.approx(1.0, abs=0.01)

    regime = read_csv(ana_out / "regime.csv")[0]
    assert "abelian-log-density" in regime["matches"].split(";")


# --- 9: filtering a third of the macros keeps survivors' metrics honest ---


def test_criterion_09_filter_invariance():
    graph = synth_mixed(1000, 20, 4, 3, seed=13)
    cg = condense_scc(graph)
    removable = sorted(name for name, i in cg.node_of.items() if not cg.is_sink(i))
    rng = np.random.default_rng(13)
    removed = frozenset(
        str(x) for x in rng.choice(removable, size=int(0.3 * len(removable)), replace=False)
    )
    before_unwrapped = unwrapped_lengths(cg)
    before = node_metrics(graph)
    filtered = filter_macro_set(cg, FilterPolicy("explicit", names=removed))
    after_unwrapped = unwrapped_lengths(filtered)
    after = node_metrics(graph, filtered)
    assert set(after_unwrapped) == set(before_unwrapped) - removed
    for name, value in after_unwrapped.items():
        assert value == before_unwrapped[name]
        assert after[name].depth <= before[name].depth
        assert after[name].wrapped_refs >= before[name].wrapped_refs


# --- 10: stationary distribution against a dense solve ---


def j0_of(graph, beta=0.5):
    splits = element_splits(graph, condense_scc(graph), "refs")
    return {name: s.j0 for name, s in compression_scores(splits, beta=beta).items()}


def test_criterion_10_pagerank_against_dense_solve():
    graph = synth_mixed(10, 3, 3, 2, seed=4)
    j0 = j0_of(graph)
    result = pagerank(graph, j0)
    assert abs(sum(result.pi.values()) - 1.0) < 1e-12

    names, P = dense_transition_matrix(graph, j0, RankParams())
    A = P - np.eye(len(names))
    A[-1, :] = 1.0
    b = np.zeros(len(names))
    b[-1] = 1.0
    direct = dict(zip(names, np.linalg.solve(A, b)))
    assert max(abs(result.pi[n] - direct[n]) for n in names) < 1e-9

    two = DepGraph([
        GraphNode(name="a", kind="definition", generated=False,
                  token_count_signature=None, token_count_body=None,
                  sig_refs={"b": 1}),
        GraphNode(name="b", kind="definition", generated=False,
                  token_count_signature=None, token_count_body=None,
                  sig_refs={"a": 1}),
    ])
    sym = pagerank(two, {"a": 1.0, "b": 1.0})
    assert sym.pi["a"] == pytest.approx(0.5)
    assert sym.pi["b"] == pytest.approx(0.5)

    scaled = pagerank(graph, {k: 7.25 * v for k, v in j0.items()})
    order = sorted(result.pi, key=lambda n: (-result.pi[n], n))
    assert sorted(scaled.pi, key=lambda n: (-scaled.pi[n], n)) == order


# --- 11: full-library scale run (needs the external snapshot) ---


def test_criterion_11_library_snapshot_scale():
    path = os.environ.get("MACROLAB_SNAPSHOT")
    if not path or not os.path.exists(path):
        pytest.skip("library snapshot not available; set MACROLAB_SNAPSHOT to run")
    started = time.monotonic()
    code = main(["analyze", "--graph", path, "--out",
                 os.path.join(os.path.dirname(path), "snapshot_analysis")])
    assert code == EXIT_OK
    assert time.monotonic() - started < 300.0
