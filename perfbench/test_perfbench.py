"""Self-test of the benchmark: a tiny pass of each workload, traced and not,
and the reference answers against hand-checked cases.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import workloads


def test_unwrapped_oracle_on_a_hand_checked_dag():
    # a = 2b + c, b = 3d, c = d + Sort; d and Sort are sinks.
    refs = {"a": {"b": 2, "c": 1}, "b": {"d": 3}, "c": {"d": 1, "Sort": 1}, "d": {}}
    assert oracles.unwrapped_lengths(refs) == {"a": 8, "b": 3, "c": 2, "d": 1, "Sort": 1}


def test_unwrapped_oracle_stays_exact_past_float_range():
    chain = {f"level{j}": {f"level{j - 1}": 2} for j in range(1, 1101)}
    chain["level0"] = {}
    assert oracles.unwrapped_lengths(chain)["level1100"] == 2**1100


def test_free_oracles_on_hand_checked_words():
    pairs = [(0, 0), (1, 1), (0, 1), (1, 0)]
    assert oracles.free_wrapped_lengths([(0, 1, 1, 0, 1)], pairs) == [3]
    # b = aa has depth 1; c = bb = aaaa is spelled b b, so depth 2; aaaaa = c a.
    family = [(0, 0), (0, 0, 0, 0)]
    assert oracles.free_depths([(0, 0, 0, 0, 0)], family) == [3]


def test_axis_oracles_on_hand_checked_values():
    count, score = oracles.coin_table([4, 9], 12)
    assert count[12] == 3 and count[10] == 2 and count[7] == 4
    # 4 = 1 + 1 + 1 + 1 has depth 1, 9 = 4 + 4 + 1 depth 2; 12 = 4 + 4 + 4, 10 = 9 + 1
    assert score[12] == 1 and score[10] == 2
    assert oracles.axis_profile([5], 1, 400, [4]) == {4: ("exact", 8)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass(name, tmp_path):
    wl = workloads.WORKLOADS[name](tiny=True)
    inp, setups = run.set_up(wl, 7, tmp_path / "inputs", (2, 0.0))
    assert len(setups) == 2 and min(setups) > 0
    exp = wl.expect(inp)
    deadline = run.clock() + 120
    plain = run.run_pass(wl, inp, exp, tmp_path / "plain", False, deadline)
    traced = run.run_pass(wl, inp, exp, tmp_path / "traced", True, deadline)
    for res in (plain, traced):
        assert res.problems == []
        assert res.attempted == sum(op.calls for op in wl.ops(inp, exp, tmp_path))
    assert plain.digests == traced.digests  # tracing changes no output byte
    assert traced.layers["cli.startup_s"] > 0
    busy = {"sim-free": ["monoid.letters_segmented", "expansion.words_scanned",
                         "families.contains_letters_calls"],
            "sim-abelian": ["monoid.lattice_points", "expansion.lattice_cells"],
            "corpus": ["exprs.tokens", "analytics.scc_count", "interest.pagerank_iterations"]}
    for key in busy[name]:
        assert traced.layers[key] > 0, key
    if name == "corpus":
        assert plain.failed == 1 and plain.known[0].startswith("rank-deep: OverflowError")
        assert traced.layers["interest.errors"] == 1
    else:
        assert plain.failed == 0 and plain.known == []


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
    assert not (Path(tmp_path) / ".perfbench_work").exists()
