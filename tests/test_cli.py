"""End-to-end tests of the command line interface via main().

Each command writes into its own tmp_path directory; determinism checks
compare output bytes across repeated runs.
"""

import csv
import gc
import io
import json
import shutil
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrolab import analytics, cli, families, interest, synth
from macrolab.cli import (
    COMMANDS, EXIT_BUDGET, EXIT_INPUT, EXIT_OK, EXIT_VERIFY, _merge, build_parser, main,
)
from macrolab.corpus import DepGraph, GraphNode, load_graph, save_graph

WORKED_CORPUS = (
    '{"format":"macrolab-corpus","version":1}\n'
    '{"name":"simple_lemma","kind":"theorem",'
    '"signature":"(forallE (sort) (forallE (sort) (forallE (app (app (const And) (other)) (other)) (other))))",'
    '"body":"(lam (sort) (lam (sort) (lam (app (app (const And) (other)) (other)) '
    '(app (app (app (const And.right) (other)) (other)) (other)))))",'
    '"token_count_signature":18,"token_count_body":24}\n'
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


# --- sim ---


def test_sim_place_profile_and_bounds(tmp_path, capsys):
    out = tmp_path / "place"
    code = main([
        "sim", "--regime", "place", "--b", "2", "--n", "1",
        "--s", "1:4", "--r-max", "100", "--out", str(out),
    ])
    assert code == EXIT_OK
    profile = read_csv(out / "profile.csv")
    assert [(r["s"], r["kind"], r["value"]) for r in profile] == [
        ("1", "exact", "2"), ("2", "exact", "6"),
        ("3", "exact", "14"), ("4", "exact", "30"),
    ]
    bounds = read_csv(out / "bounds.csv")
    assert all(r["pass"] == "true" for r in bounds)
    assert {r["regime"] for r in bounds} == {"place", "quasi_exponential_upper"}
    report = read_jsonl(out / "report.jsonl")
    assert report[0] == {"format": "macrolab-sim", "version": 1}
    assert report[-1]["status"] == "ok"
    assert "pass" in capsys.readouterr().out


def test_sim_place_bound_past_the_float_range_is_inf(tmp_path):
    # 2 ** 1024 overflows a float: that upper bound reads inf, the lower
    # bound 2 ** 1023 stays finite and fails against the capped scan
    out = tmp_path / "place"
    code = main(["sim", "--regime", "place", "--b", "2", "--n", "1",
                 "--s", "1024", "--r-max", "10", "--out", str(out)])
    assert code == EXIT_VERIFY
    place, quasi = read_csv(out / "bounds.csv")
    assert (place["lower"], place["upper"], place["pass"]) == (
        repr(2.0 ** 1023), "inf", "false")
    assert (quasi["upper"], quasi["pass"]) == ("inf", "true")


def test_sim_is_byte_deterministic(tmp_path):
    args = ["sim", "--regime", "double-log", "--b", "2", "--s", "1:5",
            "--r-max", "300"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert dir_bytes(a) == dir_bytes(b)


def test_sim_finite_empty_family_reports_identity(tmp_path):
    out = tmp_path / "finite"
    code = main([
        "sim", "--regime", "finite", "--monoid", "abelian", "--n", "1",
        "--s", "5", "--r-max", "10", "--out", str(out),
    ])
    assert code == EXIT_OK
    profile = read_csv(out / "profile.csv")
    assert [(r["s"], r["kind"], r["value"]) for r in profile] == [("5", "exact", "5")]


def test_sim_finite_with_words(tmp_path):
    out = tmp_path / "coins"
    code = main([
        "sim", "--regime", "finite", "--monoid", "abelian", "--n", "1",
        "--word", "5", "--s", "4", "--r-max", "300", "--out", str(out),
    ])
    assert code == EXIT_OK
    profile = read_csv(out / "profile.csv")
    assert profile[0]["value"] == "8"


@pytest.mark.parametrize("argv, code, last", [
    (["--regime", "waring", "--k", "2", "--n", "1", "--r-max", "10"], EXIT_OK, "at_least,10"),
    # the n-D lattice; the finite regime's lower bound s fails past the radius
    (["--regime", "finite", "--monoid", "abelian", "--n", "2", "--word", "1,1;2,0",
      "--r-max", "5"], EXIT_VERIFY, "at_least,5"),
])
def test_sim_profile_stops_once_the_lattice_stops_growing(tmp_path, argv, code, last):
    """A budget s far past the layer that reaches every point of radius <=
    r_max reads that layer's answer, without building the layers between."""
    assert main(["sim", *argv, "--s", str(10**20), "--out", str(tmp_path)]) == code
    rows = (tmp_path / "profile.csv").read_text(encoding="utf-8").splitlines()
    assert rows[-1].endswith(f",{10**20},{last}")


def test_sim_finite_free_words(tmp_path):
    out = tmp_path / "free"
    code = main([
        "sim", "--regime", "finite", "--monoid", "free", "--n", "2",
        "--word", "ab;ba", "--s", "1", "--r-max", "4", "--out", str(out),
    ])
    assert code == EXIT_OK
    profile = read_csv(out / "profile.csv")
    assert profile[0]["value"] == "1"


def test_sim_free_word_with_an_unknown_letter_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "free"
    code = main(["sim", "--regime", "finite", "--monoid", "free", "--n", "2",
                 "--word", "aA", "--s", "1", "--r-max", "4", "--out", str(out)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "'A'" in err and "a-z" in err
    assert not out.exists()


def test_sim_budget_exhaustion_exits_three(tmp_path):
    out = tmp_path / "budget"
    code = main([
        "sim", "--regime", "poly-free", "--c", "1", "--p", "1", "--n", "2",
        "--s", "6", "--r-max", "12", "--budget", "40", "--out", str(out),
    ])
    assert code == EXIT_BUDGET
    report = read_jsonl(out / "report.jsonl")
    assert report[1]["status"] == "budget_exceeded"
    assert "largest_completed_radius" in report[1]


def test_lattice_overflow_reports_the_largest_box_that_fits(tmp_path):
    # Both macros span two axes, so the profile needs the 401**3 box; the default
    # budget is 10**7 lattice points and 215**3 <= 10**7 < 216**3.
    out = tmp_path / "overflow"
    code = main(["sim", "--regime", "finite", "--monoid", "abelian", "--n", "3",
                 "--word", "1,1,0;0,1,1", "--s", "1:4", "--r-max", "400", "--out", str(out)])
    assert code == EXIT_BUDGET
    report = read_jsonl(out / "report.jsonl")
    assert report[1]["status"] == "budget_exceeded"
    assert report[1]["largest_completed_radius"] == 214


def test_place_profile_is_charged_one_lattice_per_axis(tmp_path):
    # The 401**3 box is past the default budget, but place macros each lie on
    # one axis, so the profile builds three lattices of 401 points.  f(s) is
    # the last radius before some point's coordinate popcounts sum past s.
    code = main(["sim", "--regime", "place", "--b", "2", "--n", "3", "--s", "1:4",
                 "--r-max", "400", "--out", str(tmp_path)])
    assert code == EXIT_OK
    rows = read_csv(tmp_path / "profile.csv")
    assert [(row["kind"], row["value"]) for row in rows] == [("exact", v) for v in "1246"]


def test_sim_budget_bounds_each_abelian_lattice(tmp_path):
    # Place macros lie on one axis: two lattices of 41 points each.
    args = ["sim", "--regime", "place", "--b", "2", "--n", "2", "--s", "1:3", "--r-max", "40"]
    assert main([*args, "--budget", "41", "--out", str(tmp_path / "fits")]) == EXIT_OK
    assert main([*args, "--budget", "40", "--out", str(tmp_path / "over")]) == EXIT_BUDGET
    report = read_jsonl(tmp_path / "over" / "report.jsonl")
    assert (report[1]["largest_completed_radius"], report[1]["budget"]) == (39, 40)


@pytest.mark.parametrize("key", ["word_budget", "lattice_budget"])
def test_removed_budget_options_are_input_errors(tmp_path, capsys, key):
    args = ["sim", "--regime", "finite", "--monoid", "abelian", "--n", "1", "--word", "5",
            "--s", "1:3", "--r-max", "40"]
    with pytest.raises(SystemExit) as exc:
        main([*args, "--" + key.replace("_", "-"), "1", "--out", str(tmp_path / "flag")])
    assert exc.value.code == EXIT_INPUT
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key}=1\n")
    assert main([*args, "--config", str(cfg), "--out", str(tmp_path / "cfg")]) == EXIT_INPUT
    assert f"unknown config key {key}" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists() and not (tmp_path / "cfg").exists()


def test_double_log_takes_no_second_generator(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["sim", "--regime", "double-log", "--b", "2", "--n", "3", "--s", "1:5",
                 "--r-max", "200", "--out", str(out)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--n" in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--regime", "finite", "--monoid", "free", "--n", "2", "--word", "aa;bb",
     "--budget", "-5"],
    ["--regime", "place", "--b", "2", "--n", "1", "--budget", "0"],
])
def test_non_positive_budget_is_an_input_error(tmp_path, capsys, args):
    code = main(["sim", *args, "--s", "1:3", "--r-max", "10", "--out", str(tmp_path)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "budget" in err
    assert not (tmp_path / "report.jsonl").exists()


def test_sim_probabilistic_monte_carlo(tmp_path):
    out = tmp_path / "prob"
    code = main([
        "sim", "--regime", "prob-free", "--n", "2", "--trials", "30",
        "--mc-r", "32,48", "--min-halving-rate", "0.9", "--seed", "7",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    halving = read_csv(out / "mc_halving.csv")
    assert [r["r"] for r in halving] == ["32", "48"]
    assert all(float(r["rate"]) >= 0.9 for r in halving)
    parse = read_csv(out / "mc_parse.csv")
    assert len(parse) == 60
    report = read_jsonl(out / "report.jsonl")[1]
    assert report["all_passed"] is True
    assert report["fitted_parse_constant"] > 0
    assert report["smallest_failure_free_r"] == 32


def test_sim_probabilistic_accepts_a_rate_of_one(tmp_path):
    # The rate is bounded to [0, 1], both ends included; past them is an input error.
    code = main(["sim", "--regime", "prob-free", "--n", "2", "--trials", "10", "--mc-r", "32",
                 "--min-halving-rate", "1", "--seed", "7", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert read_jsonl(tmp_path / "report.jsonl")[1]["min_halving_rate"] == 1.0


def test_sim_probabilistic_takes_a_huge_finite_window_constant(tmp_path):
    # C ln(e + r) overflows to inf here; the window is capped at the word length.
    code = main(["sim", "--regime", "prob-free", "--n", "2", "--trials", "5", "--mc-r", "16",
                 "--big-c", "1e308", "--big-b", "inf", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert len(read_csv(tmp_path / "mc_parse.csv")) == 5


def test_sim_probabilistic_reports_a_bound_violation(tmp_path, monkeypatch):
    # With no random inclusions and the smallest B the checks allow, no macro
    # halves a 64-letter word: the rate there fails, and the report says so.
    monkeypatch.setattr(families.LazyFreeMacroSet, "inclusion_probability",
                        staticmethod(lambda length: 0.0))
    code = main(["sim", "--regime", "prob-free", "--n", "2", "--big-c", "2.8", "--big-b", "5.6",
                 "--trials", "20", "--mc-r", "16,64", "--seed", "7", "--out", str(tmp_path)])
    assert code == EXIT_VERIFY
    report = read_jsonl(tmp_path / "report.jsonl")
    assert report[1]["all_passed"] is False
    assert report[-1] == {"status": "bound_violation"}
    halving = read_csv(tmp_path / "mc_halving.csv")
    assert any(float(row["rate"]) < 0.99 for row in halving)
    failure_free = [int(row["r"]) for row in halving if row["successes"] == row["trials"]]
    assert report[1]["smallest_failure_free_r"] == min(failure_free, default=None)


def test_sim_probabilistic_runs_past_twenty_six_letters(tmp_path):
    # The sampled parse spells no letter; the letter stream alone limits n, to 256.
    code = main(["sim", "--regime", "prob-free", "--n", "30", "--big-c", "14", "--big-b", "28",
                 "--trials", "5", "--mc-r", "16", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert len(read_csv(tmp_path / "mc_parse.csv")) == 5


def test_poly_free_past_ten_letters_names_every_macro_apart(tmp_path):
    # (0, 10) and (0, 1, 0) are both macros here; they once shared the name "w010".
    code = main(["sim", "--regime", "poly-free", "--n", "11", "--c", "12", "--p", "1",
                 "--s", "1:2", "--r-max", "3", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert [r["value"] for r in read_csv(tmp_path / "profile.csv")] == ["1", "2"]


def test_random_poly_sampler_draws_past_int64_word_spaces(tmp_path):
    # 3**40 words of length 40 once overflowed numpy's int64 code draws.
    from macrolab.families import FamilySpec, build_macro_family

    n, r_max = 3, 40
    args = ["sim", "--regime", "poly-free", "--sampler", "random", "--c", "1", "--p", "2",
            "--n", str(n), "--s", "1:3", "--r-max", str(r_max), "--seed", "1"]
    for run in ("a", "b"):
        assert main([*args, "--out", str(tmp_path / run)]) == EXIT_OK
    for name in ("profile.csv", "bounds.csv", "report.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    M = build_macro_family(FamilySpec.poly_density_free(1, 2, n, r_max, seed=1,
                                                        sampler="random"))
    per_length = Counter(len(m.definition.data) for m in M)
    assert per_length == {length: min(length**2, n**length) for length in range(2, r_max + 1)}


def test_sim_without_regime_is_an_input_error(tmp_path):
    assert main(["sim", "--s", "3", "--out", str(tmp_path)]) == EXIT_INPUT


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_is_an_input_error(tmp_path, capsys, seed):
    code = main(["sim", "--regime", "prob-free", "--n", "2", "--trials", "1",
                 "--mc-r", "8", "--seed", seed, "--out", str(tmp_path)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "seed" in err


def test_sim_missing_r_max_is_an_input_error(tmp_path):
    code = main(["sim", "--regime", "place", "--b", "2", "--s", "3",
                 "--out", str(tmp_path)])
    assert code == EXIT_INPUT


# --- the parser the option table generates ---


# Captured from build_parser() and _merge() before the option table replaced the
# hand-written argparse calls: per subcommand its help and, per flag, (flags, dest,
# choices, help, is a switch), in --help order; then each command's merged defaults
# given only its required options.
PINNED_PARSER = {
    "sim": ("expansion profile and bound checks for one macro family", [
        (("--regime",), "regime",
         ("place", "waring", "double-log", "finite", "poly-free", "prob-free"), None, False),
        (("--monoid",), "monoid", ("abelian", "free"), None, False),
        (("--n",), "n", None, "number of primitive generators", False),
        (("--b",), "b", None, None, False),
        (("--k",), "k", None, None, False),
        (("--c",), "c", None, None, False),
        (("--p",), "p", None, None, False),
        (("--big-b",), "big_b", None, None, False),
        (("--big-c",), "big_c", None, None, False),
        (("--s",), "s", None, "budget s or lo:hi range", False),
        (("--r-max",), "r_max", None, None, False),
        (("--word",), "word", None, "finite-regime definitions, ';'-separated", False),
        (("--sampler",), "sampler", ("lex", "random"), None, False),
        (("--trials",), "trials", None, None, False),
        (("--mc-r",), "mc_r", None, None, False),
        (("--min-halving-rate",), "min_halving_rate", None, None, False),
        (("--budget",), "budget", None,
         "profile search budget: the points of each abelian lattice, or the "
         "(match state, letter) transitions of the free worst-word DP", False),
        (("--seed",), "seed", None, "base seed for all streams", False),
        (("--out",), "out", None, "output directory", False),
        (("--config",), "config", None, "key=value defaults file; flags override", False),
    ]),
    "ingest": ("corpus or edge-list file -> canonical graph file", [
        (("--in",), "in", None, None, False),
        (("--format",), "format", ("corpus", "graph"), None, False),
        (("--out",), "out", None, "output directory", False),
        (("--config",), "config", None, "key=value defaults file; flags override", False),
    ]),
    "analyze": ("metrics, histograms, median curves, regime labels", [
        (("--graph",), "graph", None, None, False),
        (("--wrapped-metric",), "wrapped_metric", ("auto", "tokens", "refs"), None, False),
        (("--bin-log2",), "bin_log2", None, None, False),
        (("--bin-wrapped",), "bin_wrapped", None, None, False),
        (("--bin-depth",), "bin_depth", None, None, False),
        (("--fit-lo",), "fit_lo", None, None, False),
        (("--fit-hi",), "fit_hi", None, None, False),
        (("--filter-percentile",), "filter_percentile", None, None, False),
        (("--filter-kinds",), "filter_kinds", None, None, False),
        (("--full-unwrapped",), "full_unwrapped", None, None, True),
        (("--min-distinct-x",), "min_distinct_x", None, None, False),
        (("--flat-slope",), "flat_slope", None, None, False),
        (("--min-x-span",), "min_x_span", None, None, False),
        (("--out",), "out", None, "output directory", False),
        (("--config",), "config", None, "key=value defaults file; flags override", False),
    ]),
    "rank": ("compression scores and walk-based ranking", [
        (("--graph",), "graph", None, None, False),
        (("--alpha",), "alpha", None, None, False),
        (("--beta",), "beta", None, None, False),
        (("--tolerance",), "tolerance", None, None, False),
        (("--max-iter",), "max_iter", None, None, False),
        (("--wrapped-metric",), "wrapped_metric", ("auto", "tokens", "refs"), None, False),
        (("--sweep",), "sweep", None, "comma-separated alphas for a sweep file", False),
        (("--alt-deductive",), "alt_deductive", None,
         "add the unwrapped body-to-signature ratio column", True),
        (("--out",), "out", None, "output directory", False),
        (("--config",), "config", None, "key=value defaults file; flags override", False),
    ]),
    "synth": ("generate a synthetic corpus graph", [
        (("--kind",), "kind", ("hierarchy", "flat", "mixed"), None, False),
        (("--b",), "b", None, None, False),
        (("--height",), "height", None, None, False),
        (("--fanout",), "fanout", None, None, False),
        (("--nodes",), "nodes", None, None, False),
        (("--primitives",), "primitives", None, None, False),
        (("--macros",), "macros", None, None, False),
        (("--max-weight",), "max_weight", None, None, False),
        (("--seed",), "seed", None, "base seed for all streams", False),
        (("--out",), "out", None, "output directory", False),
        (("--config",), "config", None, "key=value defaults file; flags override", False),
    ]),
}

# The merged value of each option left unset, on a choice that reads it.
PINNED_DEFAULTS = {
    "sim": {
        "monoid": "abelian", "n": 1, "big_b": 8.0, "big_c": 4.0, "word": [],
        "sampler": "lex", "trials": 1000, "mc_r": [64, 128, 256], "min_halving_rate": 0.99,
        "seed": 0, "out": ".", "budget": 10000000,
    },
    "ingest": {
        "format": "corpus", "out": ".",
    },
    "analyze": {
        "out": ".", "wrapped_metric": "auto", "bin_log2": 5.0,
        "bin_wrapped": 10.0, "bin_depth": 1.0, "fit_lo": None, "fit_hi": None,
        "filter_percentile": None, "filter_kinds": None, "full_unwrapped": False,
        "min_distinct_x": 8, "flat_slope": 0.05, "min_x_span": 0.0,
    },
    "rank": {
        "out": ".", "alpha": 0.85, "beta": 0.5, "tolerance": 1e-12,
        "max_iter": 10000, "wrapped_metric": "auto", "sweep": None, "alt_deductive": False,
    },
    "synth": {
        "b": 2, "height": 10, "fanout": 4, "nodes": 1000, "primitives": 20,
        "macros": 50, "max_weight": 5, "seed": 0, "out": ".",
    },
}

# Per command and choice of its first option (None for a command without
# choices), the flags of the options that run needs and nothing else.
BASE_FLAGS = {
    ("sim", "place"): ["--regime", "place", "--b", "2", "--s", "1:3", "--r-max", "10"],
    ("sim", "waring"): ["--regime", "waring", "--k", "2", "--s", "1:3", "--r-max", "10"],
    ("sim", "double-log"): ["--regime", "double-log", "--b", "2", "--s", "1:3",
                            "--r-max", "10"],
    ("sim", "finite"): ["--regime", "finite", "--s", "1:3", "--r-max", "10"],
    ("sim", "poly-free"): ["--regime", "poly-free", "--c", "1", "--p", "2", "--s", "1:3",
                           "--r-max", "10"],
    ("sim", "prob-free"): ["--regime", "prob-free"],
    ("ingest", None): ["--in", "corpus.jsonl"],
    ("analyze", None): ["--graph", "graph.jsonl"],
    ("rank", None): ["--graph", "graph.jsonl"],
    ("synth", "hierarchy"): ["--kind", "hierarchy"],
    ("synth", "flat"): ["--kind", "flat"],
    ("synth", "mixed"): ["--kind", "mixed"],
}


def describe_parser(parser):
    """Per subcommand: its help and (flags, dest, choices, help, is a switch) per flag."""
    sub = next(a for a in parser._actions if a.dest == "command")
    helps = {a.dest: a.help for a in sub._choices_actions}
    return {
        name: (helps[name], [
            (tuple(a.option_strings), a.dest, None if a.choices is None else tuple(a.choices),
             a.help, a.nargs == 0)
            for a in sp._actions if a.dest != "help"])
        for name, sp in sub.choices.items()
    }


def test_parser_keeps_every_flag_dest_choice_and_help():
    assert describe_parser(build_parser()) == PINNED_PARSER


def test_merged_defaults_are_unchanged():
    """Every option left unset merges to its pinned default on each choice
    that reads it, and each pinned option is read by some choice."""
    parser = build_parser()
    merged = {name: set() for name in PINNED_DEFAULTS}
    for (name, _), flags in BASE_FLAGS.items():
        given = {flag[2:].replace("-", "_") for flag in flags[::2]}
        values = _merge(parser.parse_args([name, *flags]))
        unset = {dest: val for dest, val in values.items() if dest not in given}
        assert unset == {dest: PINNED_DEFAULTS[name][dest] for dest in unset}
        merged[name] |= set(unset)
    assert merged == {name: set(defaults) for name, defaults in PINNED_DEFAULTS.items()}


def test_sim_budget_default_is_the_engine_default():
    from macrolab.monoid import DEFAULT_BUDGET

    budget = next(opt for opt in COMMANDS["sim"].options if opt.flag == "--budget")
    assert budget.default == DEFAULT_BUDGET


@pytest.mark.parametrize("command", list(PINNED_PARSER))
def test_command_help_lists_every_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(flags[0] in out for flags, *_ in PINNED_PARSER[command][1])


# --- config files ---


def test_config_supplies_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "regime=place\n"
        "b=2  # base\n"
        "s=1:2\n"
        "r-max=50\n"
    )
    out_a = tmp_path / "a"
    assert main(["sim", "--config", str(cfg), "--out", str(out_a)]) == EXIT_OK
    rows = read_csv(out_a / "profile.csv")
    assert "b=2" in rows[0]["params"]
    out_b = tmp_path / "b"
    assert main(["sim", "--config", str(cfg), "--b", "3", "--out", str(out_b)]) == EXIT_OK
    rows = read_csv(out_b / "profile.csv")
    assert "b=3" in rows[0]["params"]


def test_config_values_go_through_the_validators(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("regime=place\nb=2\ns=0\nr-max=50\n")
    assert main(["sim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_INPUT


def test_unknown_config_key_is_an_input_error(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("regime=place\nb=2\ns=1:2\nr-max=50\nr_mx=50\n")
    assert main(["sim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "r_mx" in err


def test_config_key_set_twice_is_an_input_error(tmp_path, capsys):
    # r_max and r-max are one key.
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("regime=place\nb=2\ns=1:2\nr_max=3\nr-max=40\n")
    out = tmp_path / "o"
    assert main(["sim", "--config", str(cfg), "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(cfg) in err and "r_max" in err
    assert "line 4" in err and "line 5" in err
    assert not out.exists()


def test_config_key_of_ingest_in_is_in(tmp_path, capsys):
    src = tmp_path / "corpus.jsonl"
    src.write_text(WORKED_CORPUS)
    cfg = tmp_path / "ingest.cfg"
    cfg.write_text(f"in={src}\n")
    assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "a")]) == EXIT_OK
    assert (tmp_path / "a" / "graph.jsonl").exists()
    cfg.write_text(f"inp={src}\n")
    assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "b")]) == EXIT_INPUT
    assert "unknown config key inp" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "analyze", "rank"])
def test_commands_without_randomness_take_no_seed(tmp_path, capsys, command):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed=3\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert "unknown config key seed" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "3", "--out", str(tmp_path / "o")])
    assert exc.value.code == EXIT_INPUT


CHOICE_OPTIONS = [("sim", "regime"), ("sim", "monoid"), ("sim", "sampler"),
                  ("ingest", "format"), ("analyze", "wrapped_metric"),
                  ("rank", "wrapped_metric"), ("synth", "kind")]


def _option(command, dest):
    return next(opt for opt in COMMANDS[command].options if opt.dest == dest)


def _reader_flags(command, dest, choice=None):
    """BASE_FLAGS of the first choice of the command that reads `dest` (of
    `choice`, when given), less the flag (and value) of `dest`."""
    opt = _option(command, dest)
    flags = next(flags for (name, ch), flags in BASE_FLAGS.items()
                 if name == command and choice in (None, ch)
                 and (opt.read_by is None or ch in opt.read_by))
    return [x for i in range(0, len(flags), 2) if flags[i] != opt.flag for x in flags[i:i + 2]]


def test_choice_options_cover_the_table():
    assert sorted(CHOICE_OPTIONS) == sorted(
        (name, opt.dest) for name, command in COMMANDS.items() for opt in command.options
        if opt.choices is not None)


@pytest.mark.parametrize("command, dest", CHOICE_OPTIONS)
def test_config_value_outside_the_choices_is_an_input_error(tmp_path, capsys, command, dest):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(f"{dest}=abelain\n")
    out = tmp_path / "o"
    code = main([command, *_reader_flags(command, dest), "--config", str(cfg),
                 "--out", str(out)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and dest in err and "abelain" in err
    assert all(choice in err for choice in _option(command, dest).choices)
    assert not out.exists()


def test_config_conversion_error_names_the_file_and_the_key(tmp_path, capsys):
    cfg = tmp_path / "rank.cfg"
    cfg.write_text("alpha=abc\n")
    code = main(["rank", "--graph", "graph.jsonl", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(cfg) in err and "alpha" in err and "'abc'" in err


SAMPLE_TEXT = {int: "3", float: "0.25", str: "some-name", cli._s_range: "1:3",
               cli._int_list: "8,16", cli._float_list: "0.5,0.85",
               cli._comma_list: "definition,theorem", cli._semicolon_list: "aa;bb", bool: "on"}

MERGED_OPTIONS = [(name, opt) for name, command in COMMANDS.items()
                  for opt in command.options if opt.dest != "config"]


@pytest.mark.parametrize("command, opt", MERGED_OPTIONS,
                         ids=[f"{name}-{opt.dest}" for name, opt in MERGED_OPTIONS])
def test_flag_and_config_line_merge_to_the_same_value(tmp_path, command, opt):
    text = opt.choices[-1] if opt.choices else SAMPLE_TEXT[opt.conv]
    flag = [opt.flag] if opt.conv is bool else [opt.flag, text]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{opt.dest}={text}\n")
    parser = build_parser()
    # Setting the first option picks the choice; any other option is merged on
    # a choice that reads it.
    choice = text if opt.choices and opt is COMMANDS[command].options[0] else None
    base = [command, *_reader_flags(command, opt.dest, choice)]
    from_flag = _merge(parser.parse_args([*base, *flag]))[opt.dest]
    from_config = _merge(parser.parse_args([*base, "--config", str(cfg)]))[opt.dest]
    assert from_flag == from_config != opt.default


# (command, choice, option) for every option a choice of its command does not read.
UNREAD_OPTIONS = [(name, choice, opt) for name, choice in BASE_FLAGS if choice is not None
                  for opt in COMMANDS[name].options
                  if opt.read_by is not None and choice not in opt.read_by]

# (command, choice, option) for every option a choice reads and has no default for.
NEEDED_OPTIONS = [(name, choice, opt) for name, choice in BASE_FLAGS if choice is not None
                  for opt in COMMANDS[name].options
                  if opt.read_by is not None and choice in opt.read_by and opt.default is None]


def test_base_flags_set_exactly_the_needed_options():
    for (name, choice), flags in BASE_FLAGS.items():
        needed = [opt.flag for n, ch, opt in NEEDED_OPTIONS if (n, ch) == (name, choice)]
        assert flags[2::2] == needed


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, choice, opt", UNREAD_OPTIONS,
                         ids=[f"{name}-{ch}-{opt.dest}" for name, ch, opt in UNREAD_OPTIONS])
def test_option_the_choice_does_not_read_is_an_input_error(tmp_path, capsys, command, choice,
                                                            opt, source):
    text = opt.choices[-1] if opt.choices else SAMPLE_TEXT[opt.conv]
    args = [command, *BASE_FLAGS[command, choice]]
    if source == "flag":
        args += [opt.flag] if opt.conv is bool else [opt.flag, text]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{opt.dest}={text}\n")
        args += ["--config", str(cfg)]
    out = tmp_path / "o"
    assert main([*args, "--out", str(out)]) == EXIT_INPUT
    who = f"{command} {COMMANDS[command].options[0].flag} {choice}"
    assert capsys.readouterr().err == f"error: {who} does not read {opt.flag}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, choice, opt", NEEDED_OPTIONS,
                         ids=[f"{name}-{ch}-{opt.dest}" for name, ch, opt in NEEDED_OPTIONS])
def test_option_the_choice_reads_without_a_default_is_needed(tmp_path, capsys, command, choice,
                                                             opt):
    out = tmp_path / "o"
    code = main([command, *_reader_flags(command, opt.dest, choice), "--out", str(out)])
    assert code == EXIT_INPUT
    who = f"{command} {COMMANDS[command].options[0].flag} {choice}"
    assert capsys.readouterr().err == f"error: {who} needs {opt.flag}\n"
    assert not out.exists()


def test_malformed_config_line_is_an_input_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    assert main(["sim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_INPUT


def test_bad_s_flag_raises_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--regime", "place", "--b", "2", "--s", "0",
              "--r-max", "50", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_INPUT


# --- ingest ---


def test_ingest_corpus_builds_the_worked_graph(tmp_path, capsys):
    src = tmp_path / "corpus.jsonl"
    src.write_text(WORKED_CORPUS)
    out = tmp_path / "out"
    code = main(["ingest", "--in", str(src), "--format", "corpus", "--out", str(out)])
    assert code == EXIT_OK
    assert "4 elements, 7 total edge weight" in capsys.readouterr().out
    graph = load_graph(str(out / "graph.jsonl"))
    lemma = graph.nodes["simple_lemma"]
    assert lemma.sig_refs == {"And": 1, "Sort": 2}
    assert lemma.body_refs == {"And": 1, "And.right": 1, "Sort": 2}
    assert graph.nodes["And.right"].kind == "synthetic"


def test_ingest_graph_format_canonicalizes(tmp_path):
    src = tmp_path / "corpus.jsonl"
    src.write_text(WORKED_CORPUS)
    first = tmp_path / "first"
    assert main(["ingest", "--in", str(src), "--out", str(first)]) == EXIT_OK
    second = tmp_path / "second"
    code = main(["ingest", "--in", str(first / "graph.jsonl"), "--format", "graph",
                 "--out", str(second)])
    assert code == EXIT_OK
    assert (first / "graph.jsonl").read_bytes() == (second / "graph.jsonl").read_bytes()


def test_ingest_malformed_corpus_exits_one(tmp_path):
    src = tmp_path / "corpus.jsonl"
    src.write_text('{"format":"macrolab-corpus","version":1}\n{"name":""}\n')
    assert main(["ingest", "--in", str(src), "--out", str(tmp_path / "o")]) == EXIT_INPUT


def test_ingest_missing_file_exits_one(tmp_path):
    assert main(["ingest", "--in", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "o")]) == EXIT_INPUT


# --- synth + analyze pipeline ---


@pytest.fixture()
def hierarchy_graph(tmp_path):
    out = tmp_path / "synthout"
    assert main(["synth", "--kind", "hierarchy", "--b", "2", "--height", "30",
                 "--out", str(out)]) == EXIT_OK
    return out / "graph.jsonl"


def test_analyze_hierarchy_metrics(hierarchy_graph, tmp_path):
    out = tmp_path / "ana"
    code = main(["analyze", "--graph", str(hierarchy_graph), "--out", str(out)])
    assert code == EXIT_OK
    rows = {r["name"]: r for r in read_csv(out / "metrics.csv")}
    top = rows["level30"]
    assert top["log2_unwrapped"] == "30.0"
    assert top["unwrapped_decimal_digits"] == "10"
    assert top["depth"] == "30"
    assert top["wrapped_refs"] == "2"
    assert top["wrapped_tokens"] == ""
    fit = read_csv(out / "fit_log2_unwrapped_vs_depth.csv")
    assert fit[0]["scope"] == "full"
    assert float(fit[0]["slope"]) == pytest.approx(1.0)
    assert float(fit[0]["r_squared"]) == pytest.approx(1.0)
    regime = read_csv(out / "regime.csv")[0]
    assert regime["log2_unwrapped_vs_depth"] == "Linear"
    assert "abelian-log-density" in regime["matches"].split(";")


def test_analyze_is_byte_deterministic(hierarchy_graph, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", "--graph", str(hierarchy_graph), "--out", str(a)]) == EXIT_OK
    assert main(["analyze", "--graph", str(hierarchy_graph), "--out", str(b)]) == EXIT_OK
    assert dir_bytes(a) == dir_bytes(b)


def test_analyze_full_unwrapped_column(hierarchy_graph, tmp_path):
    out = tmp_path / "full"
    assert main(["analyze", "--graph", str(hierarchy_graph), "--full-unwrapped",
                 "--out", str(out)]) == EXIT_OK
    rows = {r["name"]: r for r in read_csv(out / "metrics.csv")}
    assert rows["level30"]["unwrapped"] == str(2**30)


@pytest.fixture()
def default_int_str_limit():
    """CPython's default 4,300-digit int-to-str limit, whatever an earlier
    test set, restored afterwards; a Python without the limit runs as is."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_analyze_full_unwrapped_restores_the_int_str_limit(hierarchy_graph, tmp_path,
                                                           default_int_str_limit):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str limit")
    blocked = tmp_path / "blocked"
    (blocked / "metrics.csv").mkdir(parents=True)  # so writing metrics.csv fails
    for out, code in ((tmp_path / "full", EXIT_OK), (blocked, EXIT_INPUT)):
        assert main(["analyze", "--graph", str(hierarchy_graph), "--full-unwrapped",
                     "--out", str(out)]) == code
        assert sys.get_int_max_str_digits() == 4300


def test_analyze_counts_the_digits_of_lengths_past_the_int_str_limit(tmp_path,
                                                                      default_int_str_limit):
    # Level k of a base-10000 hierarchy unwraps to 10000**k, 4k + 1 digits.
    graph = tmp_path / "synth" / "graph.jsonl"
    assert main(["synth", "--kind", "hierarchy", "--b", "10000", "--height", "1100",
                 "--out", str(graph.parent)]) == EXIT_OK
    for flags in ([], ["--full-unwrapped"]):
        out = tmp_path / f"analysis{len(flags)}"
        assert main(["analyze", "--graph", str(graph), *flags, "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "metrics.csv")
        assert [r["unwrapped_decimal_digits"] for r in rows] == [
            str(4 * k + 1) for k in range(1101)]
        if flags:
            assert [r["unwrapped"] for r in rows] == ["1" + "0000" * k for k in range(1101)]


def test_analyze_fit_window_scope(hierarchy_graph, tmp_path):
    out = tmp_path / "window"
    assert main(["analyze", "--graph", str(hierarchy_graph), "--fit-lo", "5",
                 "--fit-hi", "15", "--out", str(out)]) == EXIT_OK
    fit = read_csv(out / "fit_log2_unwrapped_vs_depth.csv")
    assert [r["scope"] for r in fit] == ["full", "window"]
    window = fit[1]
    assert float(window["x_lo"]) >= 5.0
    assert float(window["x_hi"]) <= 15.0
    assert int(window["points"]) == 11


def test_analyze_percentile_filter_drops_elements(hierarchy_graph, tmp_path):
    out = tmp_path / "filtered"
    assert main(["analyze", "--graph", str(hierarchy_graph),
                 "--filter-percentile", "50", "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "metrics.csv")
    assert 1 < len(rows) < 31


def test_analyze_kind_filter(hierarchy_graph, tmp_path):
    out = tmp_path / "kinds"
    assert main(["analyze", "--graph", str(hierarchy_graph),
                 "--filter-kinds", "definition", "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "metrics.csv")
    assert len(rows) == 31  # sinks always survive kind filters


@pytest.fixture
def mixed_graph(tmp_path):
    assert main(["synth", "--kind", "mixed", "--nodes", "50", "--seed", "3",
                 "--out", str(tmp_path / "mixed")]) == EXIT_OK
    return tmp_path / "mixed" / "graph.jsonl"


def test_analyze_kind_filter_reads_lemma_as_theorem(mixed_graph, tmp_path):
    # Filtering on theorems removes every definition; the theorems and the
    # primitives (sinks) stay, so the expected rows come from the graph file.
    kinds = Counter(load_graph(str(mixed_graph)).kinds)
    assert kinds["theorem"] and kinds["definition"]
    counts = {}
    for kind in ("theorem", "lemma"):
        out = tmp_path / kind
        assert main(["analyze", "--graph", str(mixed_graph), "--filter-kinds", kind,
                     "--out", str(out)]) == EXIT_OK
        counts[kind] = len(read_csv(out / "metrics.csv"))
    expected = sum(kinds.values()) - kinds["definition"]
    assert counts == {"theorem": expected, "lemma": expected}


@pytest.mark.parametrize("source", ["flag", "config"])
def test_analyze_unknown_filter_kind_is_an_input_error(mixed_graph, tmp_path, capsys, source):
    argv = ["analyze", "--graph", str(mixed_graph), "--out", str(tmp_path / "o")]
    if source == "flag":
        argv += ["--filter-kinds", "theorem,nonsense"]
    else:
        cfg = tmp_path / "analyze.cfg"
        cfg.write_text("filter_kinds=nonsense\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == EXIT_INPUT
    assert "unknown element kind 'nonsense'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_kind_filtered_analyze_peaks_with_the_unfiltered_run(tmp_path):
    # A filter reads through the removed elements on the one condensation; an
    # inlined second graph would grow with every rerouted path (2.2x here).
    graph = tmp_path / "mixed" / "graph.jsonl"
    assert main(["synth", "--kind", "mixed", "--nodes", "4000", "--fanout", "6", "--seed", "1",
                 "--out", str(graph.parent)]) == EXIT_OK
    base = ["analyze", "--graph", str(graph)]
    assert main(base + ["--out", str(tmp_path / "warm-up")]) == EXIT_OK  # imports, caches

    def peak(extra: list[str], out: str) -> int:
        tracemalloc.start()
        try:
            assert main(base + extra + ["--out", str(tmp_path / out)]) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    unfiltered = peak([], "unfiltered")
    filtered = peak(["--filter-kinds", "definition,primitive"], "filtered")
    assert filtered <= 1.1 * unfiltered, (filtered, unfiltered)


def test_poly_free_sim_keeps_its_words_as_bytes(tmp_path):
    # The profile stops at r = 4 and reads a trie of depth 5, so the 22,139
    # generated definitions stay bytes; built as Macro objects with their
    # names and two indexes, the same run peaked at 14 MB.
    argv = ["sim", "--regime", "poly-free", "--c", "1", "--p", "2", "--n", "3", "--s", "1:3",
            "--r-max", "40"]
    assert main(argv + ["--out", str(tmp_path / "warm-up")]) == EXIT_OK  # imports, caches
    tracemalloc.start()
    try:
        assert main(argv + ["--out", str(tmp_path / "traced")]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000, peak


def test_analyze_checks_bin_widths_before_reading_the_graph(tmp_path, capsys):
    argv = ["analyze", "--graph", str(tmp_path / "missing.jsonl"), "--bin-log2", "0",
            "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_INPUT
    assert "bin width must be positive and finite" in capsys.readouterr().err


def test_analyze_flat_corpus_matches_polynomial_row(tmp_path):
    synth_out = tmp_path / "flat"
    assert main(["synth", "--kind", "flat", "--primitives", "10", "--macros", "400",
                 "--fanout", "64", "--seed", "3", "--out", str(synth_out)]) == EXIT_OK
    ana_out = tmp_path / "ana"
    assert main(["analyze", "--graph", str(synth_out / "graph.jsonl"),
                 "--out", str(ana_out)]) == EXIT_OK
    regime = read_csv(ana_out / "regime.csv")[0]
    assert regime["matches"] == "free-polynomial"


def test_analyze_empty_graph_is_an_input_error(tmp_path):
    path = tmp_path / "graph.jsonl"
    path.write_text('{"format":"macrolab-graph","version":1}\n')
    assert main(["analyze", "--graph", str(path), "--out", str(tmp_path / "o")]) == EXIT_INPUT


def test_analyze_rejects_unknown_metric_from_config(hierarchy_graph, tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("wrapped-metric=chars\n")
    code = main(["analyze", "--graph", str(hierarchy_graph), "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_INPUT


# --- rank ---


def test_rank_orders_by_stationary_mass(tmp_path):
    synth_out = tmp_path / "mixed"
    assert main(["synth", "--kind", "mixed", "--nodes", "60", "--primitives", "8",
                 "--fanout", "4", "--max-weight", "3", "--seed", "5",
                 "--out", str(synth_out)]) == EXIT_OK
    rank_out = tmp_path / "rank"
    code = main(["rank", "--graph", str(synth_out / "graph.jsonl"),
                 "--out", str(rank_out)])
    assert code == EXIT_OK
    rows = read_csv(rank_out / "rank.csv")
    assert len(rows) == 60
    pis = [float(r["pi"]) for r in rows]
    assert pis == sorted(pis, reverse=True)
    assert sum(pis) == pytest.approx(1.0)
    assert [int(r["rank"]) for r in rows] == list(range(1, 61))
    assert "i0_alt" not in rows[0]


def test_rank_alt_deductive_column(tmp_path):
    synth_out = tmp_path / "mixed"
    assert main(["synth", "--kind", "mixed", "--nodes", "30", "--primitives", "6",
                 "--fanout", "3", "--max-weight", "2", "--seed", "2",
                 "--out", str(synth_out)]) == EXIT_OK
    rank_out = tmp_path / "rank"
    assert main(["rank", "--graph", str(synth_out / "graph.jsonl"),
                 "--alt-deductive", "--out", str(rank_out)]) == EXIT_OK
    rows = read_csv(rank_out / "rank.csv")
    assert "i0_alt" in rows[0]


def test_rank_sweep_blocks(tmp_path, monkeypatch):
    synth_out = tmp_path / "mixed"
    assert main(["synth", "--kind", "mixed", "--nodes", "30", "--primitives", "6",
                 "--fanout", "3", "--max-weight", "2", "--seed", "2",
                 "--out", str(synth_out)]) == EXIT_OK
    calls = Counter()

    def counted(owner, attr):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    for owner, attr in [(analytics, "unwrapped_lengths"), (interest, "element_splits"),
                        (interest, "compression_scores"), (interest, "pagerank"),
                        (analytics, "condense_scc")]:
        counted(owner, attr)
    rank_out = tmp_path / "rank"
    assert main(["rank", "--graph", str(synth_out / "graph.jsonl"),
                 "--sweep", "0.5,0.85", "--out", str(rank_out)]) == EXIT_OK
    # scores and the condensation the walk runs on are shared by --alpha and
    # both sweep alphas, and the sweep's 0.85 is --alpha's walk, not a second one
    assert calls == {"unwrapped_lengths": 1, "element_splits": 1, "compression_scores": 1,
                     "condense_scc": 1, "pagerank": 2}
    sweep = read_csv(rank_out / "rank_sweep.csv")
    assert len(sweep) == 60
    assert {r["alpha"] for r in sweep} == {"0.5", "0.85"}
    for alpha in ("0.5", "0.85"):
        block = [float(r["pi"]) for r in sweep if r["alpha"] == alpha]
        assert sum(block) == pytest.approx(1.0)


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_rank_tables_read_back_through_csv(tmp_path, monkeypatch):
    # Names holding a comma, a double quote, a newline and a carriage return
    # come back whole from both rank tables and from metrics.csv, and a
    # --sweep that repeats --alpha reuses its walk: that block is rank.csv's
    # rows with the alpha in front.
    nodes = [GraphNode("plain", "primitive", False, 1, None),
             GraphNode("a,b", "definition", False, 2, 3, {"plain": 2}, {"plain": 1}),
             GraphNode('say "hi"', "theorem", False, 4, 5, {"a,b": 1}, {"line\nbreak": 2}),
             GraphNode("line\nbreak", "definition", False, 3, None, {"plain": 3, "a,b": 1}),
             GraphNode("carriage\rreturn", "definition", False, 2, 2, {"plain": 1},
                       {"say \"hi\"": 1})]
    graph = tmp_path / "graph.jsonl"
    save_graph(DepGraph(nodes), str(graph))
    walks = []
    walk = interest.pagerank
    monkeypatch.setattr(interest, "pagerank", lambda *a: walks.append(a[2].alpha) or walk(*a))
    out = tmp_path / "rank"
    assert main(["rank", "--graph", str(graph), "--alpha", "0.7", "--sweep", "0.3,0.7",
                 "--alt-deductive", "--out", str(out)]) == EXIT_OK
    assert main(["analyze", "--graph", str(graph), "--out", str(out)]) == EXIT_OK
    assert walks == [0.7, 0.3]
    rank, sweep = _read_rows(out / "rank.csv"), _read_rows(out / "rank_sweep.csv")
    names = sorted(nd.name for nd in nodes)
    assert sweep[0] == ["alpha", *rank[0]] and rank[0][-1] == "i0_alt"
    assert sorted(row[0] for row in rank[1:]) == names
    assert [row for row in sweep[1:] if row[0] == "0.7"] == [["0.7", *row] for row in rank[1:]]
    assert sorted(row[1] for row in sweep[1:] if row[0] == "0.3") == names
    assert sorted(row[0] for row in _read_rows(out / "metrics.csv")[1:]) == names


def test_a_name_holding_nul_is_written_bare(tmp_path):
    # csv.writer raised on NUL on Python 3.10; the cell rule writes it as is.
    # 3.10's csv.reader refuses any line holding NUL, so only later ones read it back.
    nodes = [GraphNode("p", "primitive", False, 1, None),
             GraphNode("nul\x00byte", "definition", False, 2, 2, {"p": 1}, {"p": 2})]
    graph = tmp_path / "graph.jsonl"
    save_graph(DepGraph(nodes), str(graph))
    out = tmp_path / "out"
    assert main(["rank", "--graph", str(graph), "--out", str(out)]) == EXIT_OK
    assert main(["analyze", "--graph", str(graph), "--out", str(out)]) == EXIT_OK
    for table in ("rank.csv", "metrics.csv"):
        assert "\nnul\x00byte," in (out / table).read_text(encoding="utf-8")
        if sys.version_info >= (3, 11):
            assert sorted(row[0] for row in _read_rows(out / table)[1:]) == ["nul\x00byte", "p"]


CELLS = (st.none() | st.integers(-10**20, 10**20) | st.floats() | st.booleans()
         | st.text(st.sampled_from(' ab,"\n\'\t\x85é'), max_size=5))


@settings(deadline=None, max_examples=150)
@given(st.lists(st.lists(CELLS, min_size=2, max_size=5), max_size=5))
def test_csv_lines_equal_csv_writer_output(tmp_path_factory, rows):
    # Every table has at least two columns, and cells hold no carriage return
    # or NUL: there the rule is the same as csv.writer's on every Python.
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    cli._write_csv(str(path), ["h", "x,y"], rows)
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows([["h", "x,y"], *rows])
    assert path.read_text(encoding="utf-8") == expected.getvalue()


@pytest.mark.parametrize("token_counts, metric", [(True, "tokens"), (False, "refs")])
def test_rank_resolves_auto_metric_from_token_counts(tmp_path, capsys, monkeypatch,
                                                     token_counts, metric):
    src = tmp_path / "corpus.jsonl"
    src.write_text(WORKED_CORPUS if token_counts else WORKED_CORPUS.replace(
        ',"token_count_signature":18,"token_count_body":24', ""))
    assert main(["ingest", "--in", str(src), "--out", str(tmp_path / "g")]) == EXIT_OK

    def no_metrics(*args):
        raise AssertionError("rank computed node metrics")

    monkeypatch.setattr(analytics, "node_metrics", no_metrics)
    assert main(["rank", "--graph", str(tmp_path / "g" / "graph.jsonl"),
                 "--out", str(tmp_path / "r")]) == EXIT_OK
    assert f"({metric} wrapped metric)" in capsys.readouterr().out


def test_rank_without_convergence_is_a_verification_failure(tmp_path, capsys):
    # only a cycle is iterated: a and b reference each other
    graph = tmp_path / "graph.jsonl"
    graph.write_text('{"format":"macrolab-graph","version":1}\n'
                     '{"name":"a","kind":"definition","sig_refs":{"b":1,"p":1}}\n'
                     '{"name":"b","kind":"definition","sig_refs":{"a":2}}\n'
                     '{"name":"p","kind":"primitive"}\n')
    code = main(["rank", "--graph", str(graph), "--max-iter", "1",
                 "--tolerance", "1e-300", "--out", str(tmp_path / "rank")])
    assert code == EXIT_VERIFY
    assert "no convergence after 1 iterations" in capsys.readouterr().err


def test_rank_rejects_bad_alpha(tmp_path):
    synth_out = tmp_path / "mixed"
    assert main(["synth", "--kind", "hierarchy", "--b", "2", "--height", "3",
                 "--out", str(synth_out)]) == EXIT_OK
    code = main(["rank", "--graph", str(synth_out / "graph.jsonl"),
                 "--alpha", "1.0", "--out", str(tmp_path / "o")])
    assert code == EXIT_INPUT


# --- synth validation and the installed entry point ---


def test_synth_requires_a_kind(tmp_path):
    assert main(["synth", "--out", str(tmp_path)]) == EXIT_INPUT


# Bad input for each command, as argv naming the files `input_error_files` writes.
INPUT_ERRORS = [
    ["sim", "--regime", "place", "--b", "2", "--s", "3"],  # this regime needs --r-max
    ["sim", "--regime", "finite", "--monoid", "abelian", "--n", "2", "--word", "1",
     "--s", "2", "--r-max", "5"],  # the word needs two multiplicities
    ["ingest", "--in", "{missing}"],
    ["ingest", "--in", "{bad_corpus}"],
    ["ingest", "--in", "{bad_graph}", "--format", "graph"],  # a primitive with references
    ["analyze", "--graph", "{bad_graph}"],
    ["analyze", "--graph", "{corpus}"],  # a corpus file is no graph file
    ["analyze", "--graph", "{graph}", "--filter-percentile", "120"],
    ["rank", "--graph", "{missing}"],
    ["rank", "--graph", "{graph}", "--sweep", "0.5,1.5"],  # alpha must lie in [0, 1)
    ["rank", "--graph", "{graph}", "--max-iter", "0"],
    ["rank", "--graph", "{graph}", "--max-iter", "-2"],
    ["rank", "--graph", "{graph}", "--tolerance", "0"],
    ["rank", "--graph", "{graph}", "--tolerance", "nan"],
    ["rank", "--graph", "{zero_sig}"],  # a body but zero wrapped signature
    ["sim", "--regime", "prob-free", "--n", "2", "--trials", "0"],
    ["sim", "--regime", "prob-free", "--n", "2", "--trials", "5", "--mc-r", "8,1"],
    ["sim", "--regime", "prob-free", "--n", "2", "--trials", "5", "--mc-r", "8,0"],
    ["sim", "--regime", "prob-free", "--n", "2", "--trials", "5", "--mc-r", ","],
    ["analyze", "--graph", "{graph}", "--bin-log2", "0"],
    ["analyze", "--graph", "{graph}", "--bin-depth", "-1"],
    ["analyze", "--graph", "{graph}", "--bin-log2", "inf"],
    ["analyze", "--graph", "{graph}", "--bin-wrapped", "nan"],
    ["analyze", "--graph", "{graph}", "--bin-depth", "1e-320"],  # 1 / 1e-320 is inf
    ["analyze", "--graph", "{graph}", "--min-distinct-x", "0"],
    ["analyze", "--graph", "{graph}", "--flat-slope", "nan"],
    ["analyze", "--graph", "{graph}", "--min-x-span", "nan"],
    ["synth", "--kind", "mixed", "--nodes", "5", "--primitives", "20"],
    ["synth", "--kind", "mixed", "--nodes", "10", "--primitives", "0"],
    ["synth", "--kind", "mixed", "--nodes", "10", "--primitives", "-3"],
    ["sim", "--regime", "poly-free", "--c", "1", "--p", "2", "--n", "1", "--s", "1:3",
     "--r-max", "10"],  # one letter: no linear slope d exists
    ["sim", "--regime", "poly-free", "--c", "1", "--p", "700", "--n", "2", "--s", "1:3",
     "--r-max", "10"],  # 2**700 words of length 2
    ["sim", "--regime", "prob-free", "--n", "2", "--trials", "5", "--mc-r", "16",
     "--big-c", "nan"],
    ["sim", "--regime", "prob-free", "--n", "2", "--trials", "5", "--mc-r", "16",
     "--big-b", "nan"],
    ["sim", "--regime", "prob-free", "--n", "2", "--trials", "5", "--mc-r", "16",
     "--big-c", "inf", "--big-b", "inf"],
    ["sim", "--regime", "poly-free", "--c", "nan", "--p", "2", "--n", "2", "--s", "1:3",
     "--r-max", "10"],
    ["sim", "--regime", "poly-free", "--c", "1", "--p", "nan", "--n", "2", "--s", "1:3",
     "--r-max", "10"],
    ["sim", "--regime", "prob-free", "--n", "2", "--trials", "5", "--mc-r", "16",
     "--min-halving-rate", "nan"],
    ["sim", "--regime", "prob-free", "--n", "2", "--trials", "5", "--mc-r", "16",
     "--min-halving-rate", "2"],  # a bound no family can pass
    ["rank", "--graph", "{graph}", "--sweep", ","],
    ["analyze", "--graph", "{graph}", "--fit-lo", "nan"],
    ["analyze", "--graph", "{graph}", "--fit-hi", "nan"],
    ["analyze", "--graph", "{graph}", "--fit-lo", "3", "--fit-hi", "2"],
    ["sim", "--regime", "prob-free", "--n", "2", "--trials", "5",
     "--mc-r", "100000000000000000000"],  # no 8-byte stream prefix for this length
    ["synth", "--kind", "flat", "--primitives", "0"],
]


def input_error_files(tmp_path):
    """The files INPUT_ERRORS name, written under tmp_path, by placeholder."""
    paths = {"missing": tmp_path / "missing.jsonl", "bad_corpus": tmp_path / "bad.jsonl",
             "corpus": tmp_path / "corpus.jsonl", "graph": tmp_path / "graph" / "graph.jsonl",
             "bad_graph": tmp_path / "bad_graph.jsonl", "zero_sig": tmp_path / "zero_sig.jsonl"}
    paths["corpus"].write_text(WORKED_CORPUS)
    paths["bad_graph"].write_text('{"format":"macrolab-graph","version":1}\n'
                                  '{"name":"a","kind":"primitive","sig_refs":{"b":1}}\n'
                                  '{"name":"b","kind":"definition"}\n')
    paths["zero_sig"].write_text('{"format":"macrolab-graph","version":1}\n'
                                 '{"name":"a","kind":"theorem","token_count_body":5,'
                                 '"sig_refs":{"p":1}}\n'
                                 '{"name":"p","kind":"primitive"}\n')
    paths["bad_corpus"].write_text(WORKED_CORPUS.replace("(const And)", "(const And"))
    assert main(["ingest", "--in", str(paths["corpus"]),
                 "--out", str(paths["graph"].parent)]) == EXIT_OK
    return paths


@pytest.mark.parametrize("argv", INPUT_ERRORS)
def test_input_error_leaves_no_output_directory(tmp_path, argv):
    paths = input_error_files(tmp_path)
    out = tmp_path / "nodir"
    assert main([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == EXIT_INPUT
    assert not out.exists()


def test_console_script_runs():
    exe = shutil.which("macrolab")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sim" in proc.stdout



def _src_env():
    """The environment of a fresh interpreter that imports macrolab from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "macrolab.cli", "--help"],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0
    for command in ("sim", "ingest", "analyze", "rank", "synth"):
        assert command in proc.stdout


# --- no command imports numpy ---


def _run_fresh(script, tmp_path, *args):
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, cwd=tmp_path, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


NUMPY_FREE_SCRIPT = """
import sys

import macrolab
from macrolab.cli import main
from macrolab.families import FamilySpec, build_macro_family
from macrolab.monoid import Word, free, gprime_length, monoid_depth, wrapped_length

assert "numpy" not in sys.modules, "import macrolab loaded numpy"
with open("corpus.jsonl", "w") as fh:
    fh.write(sys.argv[1])
for argv in (
    ["sim", "--regime", "finite", "--monoid", "free", "--n", "2",
     "--word", "aa;bb;ab;ba", "--s", "1:3", "--r-max", "12", "--out", "sim"],
    ["sim", "--regime", "place", "--b", "2", "--n", "2", "--s", "1:4", "--r-max", "20",
     "--out", "place"],
    ["sim", "--regime", "waring", "--k", "2", "--n", "2", "--s", "1:4", "--r-max", "20",
     "--out", "waring"],
    ["sim", "--regime", "double-log", "--b", "2", "--s", "1:3", "--r-max", "40",
     "--out", "double-log"],
    ["sim", "--regime", "finite", "--monoid", "abelian", "--n", "1", "--word", "5",
     "--s", "1:4", "--r-max", "20", "--out", "finite"],
    ["ingest", "--in", "corpus.jsonl", "--format", "corpus", "--out", "ingest"],
    ["analyze", "--graph", "ingest/graph.jsonl", "--out", "analyze"],
    ["synth", "--kind", "hierarchy", "--b", "2", "--height", "4", "--out", "synth"],
    ["synth", "--kind", "mixed", "--nodes", "60", "--seed", "3", "--out", "mixed"],
    ["synth", "--kind", "flat", "--macros", "30", "--seed", "3", "--out", "flat"],
    ["rank", "--graph", "ingest/graph.jsonl", "--out", "rank"],
    ["rank", "--graph", "mixed/graph.jsonl", "--sweep", "0.5,0.85", "--out", "sweep"],
    ["sim", "--regime", "prob-free", "--n", "2", "--trials", "20", "--mc-r", "16,64",
     "--seed", "3", "--out", "prob"],
    ["sim", "--regime", "poly-free", "--sampler", "random", "--c", "1", "--p", "1",
     "--n", "2", "--s", "1:3", "--r-max", "12", "--seed", "3", "--out", "random"],
):
    assert main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
M = build_macro_family(FamilySpec.poly_density_free(1, 1, 2, 8))
w = Word(free(2), (0, 1, 1, 0, 1, 0, 0, 1))
print(gprime_length(w, M), monoid_depth(w, M))
assert "numpy" not in sys.modules, "free kernels loaded numpy"
M = build_macro_family(FamilySpec.place_notation(2, 3, 16))
w = Word(M.monoid, (13, 6, 11))
print(gprime_length(w, M), monoid_depth(w, M), wrapped_length(M.macros[-1], M))
assert "numpy" not in sys.modules, "abelian kernels loaded numpy"
"""


def test_free_monoid_and_corpus_paths_never_import_numpy(tmp_path):
    out = _run_fresh(NUMPY_FREE_SCRIPT, tmp_path, WORKED_CORPUS)
    assert out.splitlines()[-2:] == ["4 3", "8 4 2"]


PLACE_SCRIPT = """
import sys

from macrolab.cli import main

assert main(["sim", "--regime", "place", "--b", "2", "--n", "1",
             "--s", "1:4", "--r-max", "100", "--out", "place"]) == 0
assert "numpy" not in sys.modules
"""


HASHLIB_FREE_SCRIPT = """
import sys

if "hashlib" in sys.modules:
    print("site loaded hashlib")
    raise SystemExit
from macrolab.cli import main

for argv in (
    ["sim", "--regime", "place", "--b", "2", "--n", "2", "--s", "1:4", "--r-max", "20",
     "--out", "place"],
    ["sim", "--regime", "poly-free", "--c", "1", "--p", "2", "--n", "3", "--s", "1:3",
     "--r-max", "12", "--out", "lex"],
):
    assert main(argv) == 0, argv
    assert "hashlib" not in sys.modules, argv
print("hashlib not loaded")
"""


def test_unseeded_sims_never_import_hashlib(tmp_path):
    """Only seeded randomness hashes: the lazy family's membership and the
    seeded letter stream."""
    out = _run_fresh(HASHLIB_FREE_SCRIPT, tmp_path).splitlines()[-1]
    if out == "site loaded hashlib":
        pytest.skip("the interpreter loads hashlib at start-up")
    assert out == "hashlib not loaded"


def test_abelian_sim_never_imports_numpy(tmp_path):
    _run_fresh(PLACE_SCRIPT, tmp_path)
    profile = read_csv(tmp_path / "place" / "profile.csv")
    assert [r["value"] for r in profile] == ["2", "6", "14", "30"]


# --- each command imports only the modules it runs ---

# Both guards also name any of the dataclass machinery (with the inspect it
# pulls in) and statistics that macrolab loaded; a module the bare
# interpreter had already loaded is not counted.
IMPORT_GUARD_SCRIPT = """
import sys

heavy = {"dataclasses", "inspect", "statistics"} - sys.modules.keys()
from macrolab.cli import main

assert main(sys.argv[2:]) == 0, sys.argv[2:]
loaded = {name.split(".")[1] for name in sys.modules if name.startswith("macrolab.")}
print("loaded:", *sorted(loaded & set(sys.argv[1].split(","))), *sorted(heavy & sys.modules.keys()))
"""

KERNEL_GUARD_SCRIPT = """
import sys

heavy = {"dataclasses", "inspect", "statistics"} - sys.modules.keys()
from macrolab.families import FamilySpec, build_macro_family
from macrolab.monoid import Word, gprime_length, monoid_depth, wrapped_length

for spec, word in ((FamilySpec.poly_density_free(1, 1, 2, 8), (0, 1, 1, 0, 1, 0)),
                   (FamilySpec.place_notation(2, 2, 8), (5, 3))):
    M = build_macro_family(spec)
    w = Word(M.monoid, word)
    gprime_length(w, M), monoid_depth(w, M), wrapped_length(M.macros[0], M)
loaded = {name.split(".")[1] for name in sys.modules if name.startswith("macrolab.")}
print("loaded:", *sorted(loaded & set(sys.argv[1].split(","))), *sorted(heavy & sys.modules.keys()))
"""

SIM_ONLY = "analytics,corpus,exprs,interest,synth"
CORPUS_ONLY = "expansion,families,monoid"
GRAPH_ONLY = CORPUS_ONLY + ",exprs"  # the commands that parse no expression


@pytest.mark.parametrize("forbidden, argv", [
    (SIM_ONLY, ["sim", "--regime", "finite", "--monoid", "free", "--n", "2",
                "--word", "aa;bb;ab;ba", "--s", "1:3", "--r-max", "12", "--out", "o"]),
    (SIM_ONLY, ["sim", "--regime", "poly-free", "--c", "1", "--p", "1", "--n", "2",
                "--s", "1:2", "--r-max", "8", "--out", "o"]),
    (SIM_ONLY, ["sim", "--regime", "prob-free", "--n", "2", "--trials", "5",
                "--mc-r", "16", "--out", "o"]),
    (SIM_ONLY, ["sim", "--regime", "place", "--b", "2", "--n", "1", "--s", "1:3",
                "--r-max", "20", "--out", "o"]),
    (GRAPH_ONLY, ["synth", "--kind", "mixed", "--nodes", "40", "--out", "g"]),
    (GRAPH_ONLY, ["synth", "--kind", "flat", "--out", "g"]),
    (GRAPH_ONLY, ["synth", "--kind", "hierarchy", "--out", "g"]),
    (CORPUS_ONLY, ["ingest", "--in", "corpus.jsonl", "--out", "o"]),
    (GRAPH_ONLY, ["ingest", "--in", "graph.jsonl", "--format", "graph", "--out", "o"]),
    (GRAPH_ONLY, ["analyze", "--graph", "graph.jsonl", "--out", "o"]),
    (GRAPH_ONLY, ["rank", "--graph", "graph.jsonl", "--out", "o"]),
], ids=["sim-finite", "sim-poly", "sim-prob", "sim-place", "synth", "synth-flat",
        "synth-hierarchy", "ingest", "ingest-graph", "analyze", "rank"])
def test_each_command_imports_only_the_modules_it_runs(tmp_path, forbidden, argv):
    (tmp_path / "corpus.jsonl").write_text(WORKED_CORPUS)
    assert main(["ingest", "--in", str(tmp_path / "corpus.jsonl"),
                 "--out", str(tmp_path)]) == EXIT_OK
    out = _run_fresh(IMPORT_GUARD_SCRIPT, tmp_path, forbidden, *argv)
    assert out.splitlines()[-1] == "loaded:"


def test_free_and_abelian_kernels_import_only_the_monoid_engine(tmp_path):
    assert _run_fresh(KERNEL_GUARD_SCRIPT, tmp_path, SIM_ONLY).splitlines()[-1] == "loaded:"


# --- the cyclic garbage collector ---


@pytest.fixture
def collector():
    """Leaves the cyclic collector as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("outcome", ["exit 0", "exit 1", "raises"])
@pytest.mark.parametrize("enabled", [True, False])
def test_main_pauses_the_collector_and_restores_the_callers_state(tmp_path, monkeypatch,
                                                                   collector, enabled, outcome):
    seen = []
    build = synth.synth_hierarchy

    def watched(*args):
        seen.append(gc.isenabled())
        if outcome == "exit 1":
            raise ValueError("bad input")
        if outcome == "raises":
            raise RuntimeError("not an input error")
        return build(*args)

    monkeypatch.setattr(synth, "synth_hierarchy", watched)
    (gc.enable if enabled else gc.disable)()
    argv = ["synth", "--kind", "hierarchy", "--height", "3", "--out", str(tmp_path)]
    if outcome == "raises":
        with pytest.raises(RuntimeError):
            main(argv)
    else:
        assert main(argv) == (EXIT_OK if outcome == "exit 0" else EXIT_INPUT)
    assert seen == [False]
    assert gc.isenabled() is enabled


def _chain_corpus(n: int) -> str:
    """n definitions, each referencing the next, a primitive and Sort."""
    lines = ['{"format":"macrolab-corpus","version":1}']
    for i in range(n):
        nxt = f"(const e{i + 1})" if i + 1 < n else "(other)"
        lines.append(json.dumps({"name": f"e{i}", "kind": "definition",
                                 "signature": f"(app (const p{i % 7}) (sort))",
                                 "body": f"(lam {nxt} (app (sort) (other)))"}))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def sized_inputs(tmp_path_factory):
    """A graph and a corpus at each of two sizes, 300 and 3,000 elements."""
    root = tmp_path_factory.mktemp("sized")
    for size in (1, 10):
        assert main(["synth", "--kind", "mixed", "--nodes", str(300 * size), "--fanout", "6",
                     "--seed", "1", "--out", str(root / f"graph{size}")]) == EXIT_OK
        (root / f"corpus{size}.jsonl").write_text(_chain_corpus(300 * size))
    return root


# command family -> argv for an input size of 1 or 10, the inputs' folder and an --out
SIZED_RUNS = {
    "sim-place": lambda k, d: ["sim", "--regime", "place", "--b", "2", "--n", "1",
                               "--s", "1:3", "--r-max", str(20 * k)],
    "sim-poly-free": lambda k, d: ["sim", "--regime", "poly-free", "--c", "1", "--p", "2",
                                   "--n", "2", "--s", "1:2", "--r-max", str(4 * k)],
    "sim-prob-free": lambda k, d: ["sim", "--regime", "prob-free", "--n", "2",
                                   "--trials", str(30 * k), "--mc-r", "16,32"],
    "sim-finite-free": lambda k, d: ["sim", "--regime", "finite", "--monoid", "free",
                                     "--n", "2", "--word", "aa;bb;ab;ba", "--s", "1:3",
                                     "--r-max", str(4 * k)],
    "synth-mixed": lambda k, d: ["synth", "--kind", "mixed", "--nodes", str(300 * k)],
    "synth-hierarchy": lambda k, d: ["synth", "--kind", "hierarchy", "--height", str(6 * k)],
    "ingest-corpus": lambda k, d: ["ingest", "--in", str(d / f"corpus{k}.jsonl")],
    "ingest-graph": lambda k, d: ["ingest", "--format", "graph",
                                  "--in", str(d / f"graph{k}" / "graph.jsonl")],
    "analyze-percentile": lambda k, d: ["analyze", "--graph", str(d / f"graph{k}" / "graph.jsonl"),
                                        "--filter-percentile", "50"],
    "analyze-kinds": lambda k, d: ["analyze", "--graph", str(d / f"graph{k}" / "graph.jsonl"),
                                   "--filter-kinds", "definition,theorem"],
    "rank-sweep": lambda k, d: ["rank", "--graph", str(d / f"graph{k}" / "graph.jsonl"),
                                "--sweep", "0.5,0.85"],
}


@pytest.mark.parametrize("family", list(SIZED_RUNS))
def test_commands_leave_no_cyclic_garbage_that_grows_with_the_input(tmp_path, collector,
                                                                    sized_inputs, family):
    # Pausing the collector is safe only while a command's data holds no
    # reference cycles: what a full collection finds after a command (the
    # argument parser) must not depend on the input size.
    gc.enable()

    def run(size: int) -> int:
        argv = SIZED_RUNS[family](size, sized_inputs) + ["--out", str(tmp_path / str(size))]
        assert main(argv) == EXIT_OK
        return gc.collect()

    run(1)  # a warm-up, for the imports and caches of the first run
    assert run(1) == run(10)


PACKAGE_IMPORT_SCRIPT = """
import importlib
import sys

import macrolab

assert not [name for name in sys.modules if name.startswith("macrolab.")], sys.modules
assert not hasattr(macrolab, "Word"), "the package re-exports module names"
print(macrolab.__version__)
from macrolab import families, monoid  # as the benchmark child imports them

assert families.build_macro_family and monoid.gprime_length
corpus = importlib.import_module("macrolab.corpus")  # as the benchmark tracer does
assert corpus.load_graph is macrolab.corpus.load_graph
print("ok")
"""


def test_package_import_loads_no_module_and_submodules_import_by_name(tmp_path):
    import macrolab

    assert _run_fresh(PACKAGE_IMPORT_SCRIPT, tmp_path).splitlines() == [
        macrolab.__version__, "ok"]
