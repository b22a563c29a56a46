"""Command-line pipeline: sim / ingest / analyze / rank / synth.

Every run is deterministic: the same inputs, flags, and seed produce
byte-identical output files.  Exit codes: 0 success (all checks passed),
1 input error, 2 verification failure, 3 combinatorial budget exceeded.
Each command imports only the engine modules it runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from itertools import chain
from typing import Any, Callable, NamedTuple

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_BUDGET = 3


class InputError(ValueError):
    pass


def _to_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise InputError(f"not a boolean: {text!r}")


def _s_range(text: str) -> list[int]:
    """Either a single s or an inclusive lo:hi range."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo, hi = int(lo), int(hi)
        if lo < 1 or hi < lo:
            raise InputError(f"bad s range {text!r}")
        return list(range(lo, hi + 1))
    s = int(text)
    if s < 1:
        raise InputError("s must be >= 1")
    return [s]


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _comma_list(text: str) -> list[str]:
    return text.split(",")


def _semicolon_list(text: str) -> list[str]:
    return text.split(";")


def read_config(path: str | None) -> dict[str, str]:
    """key=value lines; '#' starts a comment; a key is an option's dest, with
    '_' or '-' between words (r_max=100 or r-max=100), and sets it once."""
    if path is None:
        return {}
    cfg: dict[str, str] = {}
    set_on: dict[str, int] = {}  # key -> the line that set it
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if key in set_on:
                    raise InputError(f"{path}: key {key} is set on both line {set_on[key]} "
                                     f"and line {lineno}")
                set_on[key] = lineno
                cfg[key] = value.strip()
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    return cfg


def _from_config(opt: Opt, text: str, path: str) -> Any:
    try:
        val = _to_bool(text) if opt.conv is bool else opt.conv(text)
    except ValueError as exc:
        raise InputError(f"{path}: bad {opt.dest} value {text!r}: {exc}") from exc
    if opt.choices is not None and val not in opt.choices:
        raise InputError(f"{path}: {opt.dest} must be one of {', '.join(opt.choices)}, "
                         f"got {text!r}")
    return val


def _merge(args: argparse.Namespace) -> dict:
    """Flags beat config, config beats defaults; a config key no option has is an input error.

    A config value goes through its flag's converter and choices; the required
    and range checks apply to a value from either source.  The command's first
    option is merged first, and its choice decides which options with a
    ``read_by`` are read: one the choice does not read must be left unset and
    is left out of the result; one it reads with no default must be set.
    """
    # --config names the file, so it is the one option that is no key in it.
    opts = [opt for opt in COMMANDS[args.command].options if opt.dest != "config"]
    cfg = read_config(args.config)
    unknown = sorted(set(cfg) - {opt.dest for opt in opts})
    if unknown:
        raise InputError(f"{args.config}: unknown config key {', '.join(unknown)}")
    out = {}
    who = args.command
    for opt in opts:
        val = getattr(args, opt.dest)
        if val is None and opt.dest in cfg:
            val = _from_config(opt, cfg[opt.dest], args.config)
        if opt.read_by is not None and out[opts[0].dest] not in opt.read_by:
            if val is not None:
                raise InputError(f"{who} does not read {opt.flag}")
            continue
        if val is None:
            if opt.required or opt.read_by is not None and opt.default is None:
                raise InputError(f"{who} needs {opt.flag}")
            val = opt.default
        elif opt.bounds and not opt.bounds[0] <= val < opt.bounds[1]:
            raise InputError(f"{opt.dest} must lie in [{opt.bounds[0]}, {opt.bounds[1]}), "
                             f"got {val}")
        out[opt.dest] = val
        who = f"{args.command} {opts[0].flag} {out[opts[0].dest]}"  # names the choice
    return out


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Cells as given: csv.writer writes None as "" and any other value with
    str(), which for a float is its repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_jsonl(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


def _ensure_out(out: str) -> str:
    os.makedirs(out, exist_ok=True)
    return out


# --- sim ---


def _parse_finite_words(texts: list[str], monoid_name: str, n: int) -> list[Word]:
    from .expansion import letters_of_str
    from .monoid import Word, abelian, free

    words = []
    for text in texts:
        text = text.strip()
        if monoid_name == "abelian":
            mults = [int(x) for x in text.split(",")]
            if len(mults) != n:
                raise InputError(f"word {text!r} needs {n} multiplicities")
            words.append(Word(abelian(n), tuple(mults)))
        else:
            words.append(Word(free(n), letters_of_str(text)))
    return words


def _family_spec(opts: dict) -> families.FamilySpec:
    """The family of the merged options, which hold only those its regime reads."""
    from . import families
    from .monoid import abelian, free

    regime = opts["regime"]
    if regime == "place":
        return families.FamilySpec.place_notation(opts["b"], opts["n"], opts["r_max"])
    if regime == "waring":
        return families.FamilySpec.waring(opts["k"], opts["n"], opts["r_max"])
    if regime == "double-log":
        return families.FamilySpec.double_log(opts["b"], opts["r_max"])
    if regime == "finite":
        words = _parse_finite_words(opts["word"], opts["monoid"], opts["n"])
        mon = abelian(opts["n"]) if opts["monoid"] == "abelian" else free(opts["n"])
        return families.FamilySpec.finite(words, opts["r_max"], monoid=mon)
    if regime == "poly-free":
        return families.FamilySpec.poly_density_free(
            opts["c"], opts["p"], opts["n"], opts["r_max"], seed=opts["seed"],
            sampler=opts["sampler"])
    return families.FamilySpec.probabilistic_free(  # prob-free, the last choice
        opts["big_b"], opts["big_c"], opts["n"], 1, opts["seed"])


def _bound_rows(report: expansion.BoundReport) -> list[list]:
    return [[report.regime, report.params, row.s, row.lower,
             "exact" if row.measured.exact else "at_least", row.measured.value,
             row.upper, "true" if row.passed else "false", row.note] for row in report.rows]


def cmd_sim(args: argparse.Namespace) -> int:
    from . import expansion, families

    opts = _merge(args)
    spec = _family_spec(opts)
    M = families.build_macro_family(spec)
    if spec.regime == "prob_free":
        return _sim_probabilistic(M, spec, opts)
    out = _ensure_out(opts["out"])

    try:
        profile = expansion.expansion_profile(
            M, opts["s"], spec.r_max, spec=spec, budget=opts["budget"])
    except expansion.SphereBudgetError as exc:
        _write_jsonl(os.path.join(out, "report.jsonl"), [
            {"format": "macrolab-sim", "version": 1},
            {"status": "budget_exceeded", "largest_completed_radius": exc.largest_completed,
             "budget": exc.budget, "regime": spec.regime},
        ])
        print(f"budget exceeded; largest completed radius {exc.largest_completed}",
              file=sys.stderr)
        return EXIT_BUDGET

    reports = [expansion.verify_bounds(profile, spec)]
    if spec.regime in ("place", "double_log"):
        reports.append(expansion.quasi_exponential_upper_report(
            profile, q=1.0, n=spec.monoid.n))

    _write_csv(
        os.path.join(out, "profile.csv"),
        ["regime", "params", "s", "kind", "value"],
        [[spec.regime, reports[0].params, s, "exact" if v.exact else "at_least", v.value]
         for s, v in sorted(profile.entries.items())],
    )
    _write_csv(
        os.path.join(out, "bounds.csv"),
        ["regime", "params", "s", "lower", "measured_kind", "measured_value",
         "upper", "pass", "note"],
        [row for rep in reports for row in _bound_rows(rep)],
    )
    records = [{"format": "macrolab-sim", "version": 1}]
    for rep in reports:
        records.append({
            "regime": rep.regime, "params": rep.params, "all_passed": rep.all_passed,
            "constants": rep.constants,
        })
    all_passed = all(rep.all_passed for rep in reports)
    records.append({"status": "ok" if all_passed else "bound_violation"})
    _write_jsonl(os.path.join(out, "report.jsonl"), records)
    for rep in reports:
        print(f"{rep.regime}: {'pass' if rep.all_passed else 'FAIL'} "
              f"({len(rep.rows)} rows)")
    return EXIT_OK if all_passed else EXIT_VERIFY


def _sim_probabilistic(M, spec: families.FamilySpec, opts: dict) -> int:
    from . import expansion

    if not opts["mc_r"]:
        raise InputError("--mc-r needs at least one radius")
    rates = [
        expansion.sampled_rates(M, r, opts["trials"], opts["seed"])
        for r in opts["mc_r"]
    ]
    fitted_k = expansion.fit_parse_constant(rates)
    out = _ensure_out(opts["out"])
    _write_csv(
        os.path.join(out, "mc_halving.csv"),
        ["r", "trials", "successes", "rate"],
        [[sr.r, sr.trials, sr.halving_successes, sr.halving_rate] for sr in rates],
    )
    _write_csv(
        os.path.join(out, "mc_parse.csv"),
        ["r", "trial", "token_count"],
        [[sr.r, i, count] for sr in rates for i, count in enumerate(sr.parse_counts)],
    )
    ok = all(sr.halving_rate >= opts["min_halving_rate"] for sr in rates) and all(
        sr.parse_failures == 0 for sr in rates)
    failure_free = [sr.r for sr in rates if sr.halving_successes == sr.trials]
    _write_jsonl(os.path.join(out, "report.jsonl"), [
        {"format": "macrolab-sim", "version": 1},
        {"regime": spec.regime, "params": expansion._params_str(spec),
         "fitted_parse_constant": fitted_k,
         "min_halving_rate": opts["min_halving_rate"],
         "smallest_failure_free_r": min(failure_free) if failure_free else None,
         "rates": [{"r": sr.r, "rate": sr.halving_rate,
                    "parse_failures": sr.parse_failures} for sr in rates],
         "all_passed": ok},
        {"status": "ok" if ok else "bound_violation"},
    ])
    for sr in rates:
        print(f"r={sr.r}: halving rate {sr.halving_rate:.4f}, "
              f"{sr.parse_failures} parse failures")
    print(f"fitted parse constant K={fitted_k:.4f}")
    return EXIT_OK if ok else EXIT_VERIFY


# --- ingest ---


def cmd_ingest(args: argparse.Namespace) -> int:
    from .corpus import ingest_corpus, load_graph, save_graph

    opts = _merge(args)
    if opts["format"] == "corpus":
        graph = ingest_corpus(opts["in"])
    else:
        graph = load_graph(opts["in"])
    path = os.path.join(_ensure_out(opts["out"]), "graph.jsonl")
    save_graph(graph, path)
    print(f"{len(graph)} elements, {graph.total_edge_weight()} total edge weight -> {path}")
    return EXIT_OK


# --- analyze ---


def _resolve_metric(metric: str, token_counts) -> str:
    """`auto` is `tokens` when any of the token counts is known, else `refs`."""
    if metric != "auto":
        return metric
    return "tokens" if any(t is not None for t in token_counts) else "refs"


def _wrapped_of(m: analytics.NodeMetrics, metric: str) -> int | None:
    if metric == "tokens":
        return None if m.generated else m.wrapped_tokens
    return m.wrapped_refs


def _decimal_digits(x: int) -> int:
    """len(str(x)) for an int x >= 0, without the int-to-str conversion that
    CPython refuses past 4,300 digits: 2**(L-1) <= x < 2**L for L bits, so x
    has k or k + 1 digits, k being the digits of 2**(L-1)."""
    k = int(max(x.bit_length() - 1, 0) * math.log10(2)) + 1
    return k + (x >= 10**k)


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import analytics
    from .corpus import load_graph, normalize_kind

    opts = _merge(args)
    graph = load_graph(opts["graph"])
    if len(graph) == 0:
        raise InputError("graph has no elements")
    cg = analytics.condense_scc(graph)
    if opts["filter_kinds"]:
        kinds = frozenset(map(normalize_kind, opts["filter_kinds"]))
        cg = analytics.filter_macro_set(cg, analytics.FilterPolicy("kind", kinds=kinds))
    if opts["filter_percentile"] is not None:
        cg = analytics.filter_macro_set(
            cg, analytics.FilterPolicy("indegree_percentile",
                                       percentile=opts["filter_percentile"]))
    if not all(0 < opts[key] < math.inf for key in ("bin_log2", "bin_wrapped", "bin_depth")):
        raise InputError("bin width must be positive and finite")
    metrics = analytics.node_metrics(graph, cg)
    metric_name = _resolve_metric(opts["wrapped_metric"],
                                  (m.wrapped_tokens for m in metrics.values()))

    header = ["name", "kind", "wrapped_tokens", "wrapped_refs", "log2_unwrapped",
              "unwrapped_decimal_digits", "depth"]
    if opts["full_unwrapped"]:
        header.append("unwrapped")
    rows = []
    pairs = []  # (depth, wrapped, log2 unwrapped) of each element with a wrapped size
    for m in metrics.values():  # in name order
        row = [m.name, m.kind, m.wrapped_tokens, m.wrapped_refs,
               m.log2_unwrapped, _decimal_digits(m.unwrapped), m.depth]
        if opts["full_unwrapped"]:
            row.append(m.unwrapped)
        rows.append(row)
        wrapped = _wrapped_of(m, metric_name)
        if wrapped is not None:
            pairs.append((m.depth, wrapped, m.log2_unwrapped))
    hists = {name: analytics.histogram(values, opts[key]) for name, key, values in (
        ("log2_unwrapped", "bin_log2", [m.log2_unwrapped for m in metrics.values()]),
        ("wrapped", "bin_wrapped", [w for _, w, _ in pairs]),
        ("depth", "bin_depth", [m.depth for m in metrics.values()]))}
    out = _ensure_out(opts["out"])
    # The unwrapped column holds every digit: CPython's int-to-str limit is
    # lifted while metrics.csv is written, and only then.
    unlimited = opts["full_unwrapped"] and hasattr(sys, "set_int_max_str_digits")
    if unlimited:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        _write_csv(os.path.join(out, "metrics.csv"), header, rows)
    finally:
        if unlimited:
            sys.set_int_max_str_digits(limit)

    for name, bins in hists.items():
        _write_csv(os.path.join(out, f"hist_{name}.csv"), ["lo", "hi", "count"],
                   [[b.lo, b.hi, b.count] for b in bins])

    curves = {
        "log2_unwrapped_vs_depth": analytics.median_curve((d, u) for d, _, u in pairs),
        "wrapped_vs_depth": analytics.median_curve((d, w) for d, w, _ in pairs),
        "log2_unwrapped_vs_wrapped": analytics.median_curve((w, u) for _, w, u in pairs),
    }
    scopes = [("full", None)]
    if opts["fit_lo"] is not None or opts["fit_hi"] is not None:
        lo = opts["fit_lo"] if opts["fit_lo"] is not None else -math.inf
        hi = opts["fit_hi"] if opts["fit_hi"] is not None else math.inf
        scopes.append(("window", (lo, hi)))
    for name, curve in curves.items():
        _write_csv(os.path.join(out, f"curve_{name}.csv"),
                   ["x", "median", "count"],
                   [[x, m, c] for x, m, c in zip(curve.xs, curve.medians, curve.counts)])
        fit_rows = []
        for scope, rng in scopes:
            try:
                fit = analytics.slope_fit(curve, rng)
                fit_rows.append([scope, fit.slope, fit.intercept, fit.r_squared,
                                 fit.x_lo, fit.x_hi, fit.points, ""])
            except analytics.DegenerateFitError as exc:
                fit_rows.append([scope, None, None, None, None, None, 0, str(exc)])
        _write_csv(os.path.join(out, f"fit_{name}.csv"),
                   ["scope", "slope", "intercept", "r_squared", "x_lo", "x_hi",
                    "points", "note"],
                   fit_rows)

    cfg = analytics.ClassifyConfig(opts["min_distinct_x"], opts["flat_slope"],
                                   opts["min_x_span"])
    verdict = analytics.regime_classify(
        curves["log2_unwrapped_vs_depth"], curves["wrapped_vs_depth"],
        curves["log2_unwrapped_vs_wrapped"], cfg)
    _write_csv(os.path.join(out, "regime.csv"),
               ["log2_unwrapped_vs_depth", "wrapped_vs_depth",
                "log2_unwrapped_vs_wrapped", "matches"],
               [[*verdict.labels, ";".join(verdict.matches)]])
    print(f"{len(metrics)} elements ({metric_name} wrapped metric); "
          f"labels {verdict.labels}, matches: {verdict.matches or 'none'}")
    return EXIT_OK


# --- rank ---


def _rank_rows(graph, cg, scores, params, alt) -> list[list]:
    from . import interest

    result = interest.pagerank(graph, {k: v.j0 for k, v in scores.items()}, params, cg)
    order = sorted(result.pi, key=lambda name: (-result.pi[name], name))
    rows = []
    for rank, name in enumerate(order, start=1):
        sc = scores[name]
        row = [name, sc.t0, sc.i0, sc.j0, result.pi[name], rank]
        if alt is not None:
            row.append(alt[name])
        rows.append(row)
    return rows


def cmd_rank(args: argparse.Namespace) -> int:
    from . import analytics, interest
    from .corpus import load_graph

    opts = _merge(args)
    graph = load_graph(opts["graph"])
    if len(graph) == 0:
        raise InputError("graph has no elements")
    params, *sweep = [interest.RankParams(a, opts["beta"], opts["tolerance"], opts["max_iter"])
                      for a in [opts["alpha"], *(opts["sweep"] or [])]]
    out = _ensure_out(opts["out"])
    cg = analytics.condense_scc(graph)
    metric_name = _resolve_metric(opts["wrapped_metric"],
                                  chain(graph.tokens_sig, graph.tokens_body))
    splits = interest.element_splits(graph, cg, metric_name)
    alt = interest.alt_deductive_scores(splits) if opts["alt_deductive"] else None
    scores = interest.compression_scores(splits, opts["beta"])

    header = ["name", "t0", "i0", "j0", "pi", "rank"]
    if alt is not None:
        header.append("i0_alt")
    try:
        _write_csv(os.path.join(out, "rank.csv"), header,
                   _rank_rows(graph, cg, scores, params, alt))
        if sweep:
            _write_csv(os.path.join(out, "rank_sweep.csv"), ["alpha", *header],
                       [[p.alpha, *row] for p in sweep
                        for row in _rank_rows(graph, cg, scores, p, alt)])
    except interest.PowerIterationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"ranked {len(graph)} elements ({metric_name} wrapped metric)")
    return EXIT_OK


# --- synth ---


def cmd_synth(args: argparse.Namespace) -> int:
    from . import synth
    from .corpus import save_graph

    opts = _merge(args)
    if opts["kind"] == "hierarchy":
        graph = synth.synth_hierarchy(opts["b"], opts["height"])
    elif opts["kind"] == "flat":
        graph = synth.synth_flat(opts["primitives"], opts["macros"], opts["fanout"],
                                 opts["seed"])
    else:
        graph = synth.synth_mixed(opts["nodes"], opts["primitives"], opts["fanout"],
                                  opts["max_weight"], opts["seed"])
    path = os.path.join(_ensure_out(opts["out"]), "graph.jsonl")
    save_graph(graph, path)
    print(f"{len(graph)} elements -> {path}")
    return EXIT_OK


# --- the option table ---


class Opt(NamedTuple):
    """One option: its flag, and its key in a config file (the dest, e.g. r_max).

    ``conv`` turns the flag's text into the value; ``bool`` makes a switch
    whose config value is one of true/false, yes/no, on/off, 1/0.  ``bounds``
    is an inclusive lower and an exclusive upper limit.  A ``required`` option
    left out of both flags and config is an input error.  ``read_by`` names
    the choices of the command's first option (``sim --regime``,
    ``synth --kind``) that read the option; None means every choice does.
    """

    flag: str
    conv: Callable[[str], Any] = str
    default: Any = None
    help: str | None = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    bounds: tuple[int, float] | None = None
    read_by: tuple[str, ...] | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class Command(NamedTuple):
    help: str
    run: Callable[[argparse.Namespace], int]
    options: tuple[Opt, ...]


_SEED = Opt("--seed", int, 0, "base seed for all streams", bounds=(0, 2**64))
_GRAPH = Opt("--graph", required=True)
_METRIC = Opt("--wrapped-metric", default="auto", choices=("auto", "tokens", "refs"))
_COMMON = (
    Opt("--out", default=".", help="output directory"),
    Opt("--config", help="key=value defaults file; flags override"),
)
# The sim regimes that compute an expansion profile; prob-free samples instead.
_PROFILED = ("place", "waring", "double-log", "finite", "poly-free")

COMMANDS = {
    "sim": Command("expansion profile and bound checks for one macro family", cmd_sim, (
        Opt("--regime", required=True, choices=(*_PROFILED, "prob-free")),
        Opt("--monoid", default="abelian", choices=("abelian", "free"), read_by=("finite",)),
        Opt("--n", int, 1, "number of primitive generators",
            read_by=("place", "waring", "finite", "poly-free", "prob-free")),
        Opt("--b", int, read_by=("place", "double-log")),
        Opt("--k", int, read_by=("waring",)),
        Opt("--c", float, read_by=("poly-free",)),
        Opt("--p", float, read_by=("poly-free",)),
        Opt("--big-b", float, 8.0, read_by=("prob-free",)),
        Opt("--big-c", float, 4.0, read_by=("prob-free",)),
        Opt("--s", _s_range, help="budget s or lo:hi range", read_by=_PROFILED),
        Opt("--r-max", int, read_by=_PROFILED),
        Opt("--word", _semicolon_list, [], "finite-regime definitions, ';'-separated",
            read_by=("finite",)),
        Opt("--sampler", default="lex", choices=("lex", "random"), read_by=("poly-free",)),
        Opt("--trials", int, 1000, bounds=(1, math.inf), read_by=("prob-free",)),
        Opt("--mc-r", _int_list, [64, 128, 256], read_by=("prob-free",)),
        Opt("--min-halving-rate", float, 0.99, read_by=("prob-free",)),
        # 10**7 is monoid.DEFAULT_BUDGET, spelt out so that the corpus
        # commands, which build the same parser, never load monoid.
        Opt("--budget", int, 10**7,
            "profile search budget: the points of each abelian lattice, or the "
            "(match state, letter) transitions of the free worst-word DP",
            bounds=(1, math.inf), read_by=_PROFILED),
        _SEED._replace(read_by=("poly-free", "prob-free")), *_COMMON)),
    "ingest": Command("corpus or edge-list file -> canonical graph file", cmd_ingest, (
        Opt("--in", required=True),
        Opt("--format", default="corpus", choices=("corpus", "graph")),
        *_COMMON)),
    "analyze": Command("metrics, histograms, median curves, regime labels", cmd_analyze, (
        _GRAPH,
        _METRIC,
        Opt("--bin-log2", float, 5.0),
        Opt("--bin-wrapped", float, 10.0),
        Opt("--bin-depth", float, 1.0),
        Opt("--fit-lo", float),
        Opt("--fit-hi", float),
        Opt("--filter-percentile", float),
        Opt("--filter-kinds", _comma_list),
        Opt("--full-unwrapped", bool, False),
        Opt("--min-distinct-x", int, 8),
        Opt("--flat-slope", float, 0.05),
        Opt("--min-x-span", float, 0.0),
        *_COMMON)),
    "rank": Command("compression scores and walk-based ranking", cmd_rank, (
        _GRAPH,
        Opt("--alpha", float, 0.85),
        Opt("--beta", float, 0.5),
        Opt("--tolerance", float, 1e-12),
        Opt("--max-iter", int, 10_000, bounds=(1, math.inf)),
        _METRIC,
        Opt("--sweep", _float_list, help="comma-separated alphas for a sweep file"),
        Opt("--alt-deductive", bool, False,
            "add the unwrapped body-to-signature ratio column"),
        *_COMMON)),
    "synth": Command("generate a synthetic corpus graph", cmd_synth, (
        Opt("--kind", required=True, choices=("hierarchy", "flat", "mixed")),
        Opt("--b", int, 2, read_by=("hierarchy",)),
        Opt("--height", int, 10, read_by=("hierarchy",)),
        Opt("--fanout", int, 4, read_by=("flat", "mixed")),
        Opt("--nodes", int, 1000, read_by=("mixed",)),
        Opt("--primitives", int, 20, read_by=("flat", "mixed")),
        Opt("--macros", int, 50, read_by=("flat",)),
        Opt("--max-weight", int, 5, read_by=("mixed",)),
        _SEED._replace(read_by=("flat", "mixed")), *_COMMON)),
}


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit EXIT_INPUT: exit 2 means a bound failed."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """Subcommands and flags from COMMANDS; every flag defaults to None so that
    _merge can tell a given flag from an absent one."""
    parser = _Parser(
        prog="macrolab",
        description="macro-set expansion simulations and dependency-graph compression analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for opt in command.options:
            if opt.conv is bool:
                sp.add_argument(opt.flag, dest=opt.dest, action="store_const", const=True,
                                help=opt.help)
            else:
                sp.add_argument(opt.flag, dest=opt.dest, type=opt.conv, choices=opt.choices,
                                help=opt.help)
        sp.set_defaults(func=command.run)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # InputError and CorpusError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
