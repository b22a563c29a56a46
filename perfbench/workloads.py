"""The three benchmark workloads: their inputs, operations and output checks.

Each workload is chosen so that the modules a later change is likely to
optimise do most of their work in one workload and almost none in the
others (see README.md for the layer table):

* `SimFree`    - free-monoid `sim` runs and the trie-segmentation kernels;
* `SimAbelian` - abelian `sim` runs (numpy reachability) and the pure-Python
                 lattice DP that only the kernels reach;
* `Corpus`     - the library-analysis commands on a generated export.

A workload builds its inputs from the seed (`setup`), computes the expected
answers once (`expect`), and lists the operations of one pass (`ops`).  Every
operation carries a check that returns None when the output is right and the
reason otherwise.  `tiny=True` shrinks every size for the self-test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import oracles

# The one failure the benchmark expects: `rank` turns each element's exact
# unwrapped length into a float, which overflows above 2**1024.
DEEP_RANK_DEFECT = ("OverflowError", "compression_scores")


@dataclass
class Outcome:
    """How one child process ended."""

    returncode: int
    stderr: str


@dataclass
class Op:
    name: str
    command: str  # sim, kernel, ingest, analyze, rank or synth
    argv: list[str]  # child.py arguments after the optional --spans
    out_dir: Path
    check: Callable[[Path], str | None]  # output directory -> failure reason or None
    calls: int = 1  # operations counted towards error_rate
    known_defect: tuple[str, ...] | None = None


def fingerprint(out_dir: Path) -> str:
    """Digest of every output file except kernel timings, for the
    byte-identical-across-passes check."""
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            if path.name == "kernel.json":
                h.update(json.dumps(json.loads(path.read_text())["results"]).encode())
            else:
                h.update(path.read_bytes())
    return h.hexdigest()


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def verify(op: Op, res: Outcome) -> str | None:
    """None when the operation exited 0 and its output checks out, else why not."""
    if res.returncode != 0:
        tail = res.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {res.returncode}: {tail[0]}"
    return op.check(op.out_dir)


# --- sim ---


def _sim_op(name: str, args: list[str], expected: dict[int, tuple[str, int]], out: Path) -> Op:
    def check(out: Path) -> str | None:
        rows = _rows(out / "profile.csv")
        got = {int(r["s"]): (r["kind"], int(r["value"])) for r in rows}
        if got != expected:
            wrong = sorted(s for s in set(got) | set(expected) if got.get(s) != expected.get(s))
            return f"profile differs at s={wrong[:5]}: got {[got.get(s) for s in wrong[:5]]}, " \
                   f"expected {[expected.get(s) for s in wrong[:5]]}"
        if _jsonl(out / "report.jsonl")[-1] != {"status": "ok"}:
            return "report.jsonl does not end with status ok"
        return None

    return Op(name, "sim", ["cli", "sim", *args, "--out", str(out)], out, check)


def _prob_free_op(trials: int, mc_r: list[int], seed: int, out: Path) -> Op:
    """The Monte Carlo run has no closed form; check it is complete and
    consistent with itself (rates, token counts, fitted constant)."""

    def check(out: Path) -> str | None:
        halving = _rows(out / "mc_halving.csv")
        if [int(r["r"]) for r in halving] != mc_r:
            return "mc_halving.csv lists the wrong radii"
        for r in halving:
            succ = int(r["successes"])
            if int(r["trials"]) != trials or not 0 <= succ <= trials \
                    or r["rate"] != repr(succ / trials):
                return f"inconsistent halving row {r}"
        report = _jsonl(out / "report.jsonl")
        summary = report[1]
        failures = {entry["r"]: entry["parse_failures"] for entry in summary["rates"]}
        counts: dict[int, list[int]] = {r: [] for r in mc_r}
        for row in _rows(out / "mc_parse.csv"):
            counts[int(row["r"])].append(int(row["token_count"]))
        best = 0.0
        for r in mc_r:
            if len(counts[r]) != trials - failures[r]:
                return f"r={r}: {len(counts[r])} parse rows for {trials} trials"
            if any(not 1 <= c <= r for c in counts[r]):
                return f"r={r}: token count outside [1, r]"
            best = max([best] + [c / math.log(r) ** 2 for c in counts[r]])
        if summary["fitted_parse_constant"] != best:
            return "fitted parse constant does not match the token counts"
        if not summary["all_passed"] or report[-1] != {"status": "ok"}:
            return "report does not pass"
        return None

    args = ["--regime", "prob-free", "--n", "2", "--trials", str(trials),
            "--mc-r", ",".join(map(str, mc_r)), "--seed", str(seed)]
    return Op("sim-prob-free", "sim", ["cli", "sim", *args, "--out", str(out)], out, check)


def _kernel_op(spec_path: Path, expected: list[int], out: Path) -> Op:
    def check(out: Path) -> str | None:
        got = json.loads((out / "kernel.json").read_text())["results"]
        wrong = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
        if len(got) != len(expected) or wrong:
            return f"{len(wrong)} wrong kernel results, first at call {wrong[:1]}"
        return None

    return Op("kernels", "kernel", ["kernel", str(spec_path), str(out / "kernel.json")],
              out, check, calls=len(expected))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj), encoding="utf-8")


class SimFree:
    """Free monoid: trie segmentation, the n**r sphere scan, the lazy
    probabilistic family and its halving parse."""

    name = "sim-free"

    def __init__(self, tiny: bool = False):
        if tiny:
            self.finite = ("1:4", 12)
            self.poly = ("1:2", 10)
            self.prob = (20, [16, 32])
            self.kernel = (12, 5, 100, 1)  # family r_max, words, length, depth calls
        else:
            self.finite = ("1:7", 40)
            self.poly = ("1:3", 40)
            self.prob = (300, [64, 128, 256, 512])
            self.kernel = (50, 200, 2000, 3)

    def setup(self, seed: int, inputs: Path) -> dict:
        r_max, count, length, depth_calls = self.kernel
        words = gen.binary_words(seed, count, length)
        calls = [{"fn": "gprime_length", "family": "poly", "word": w} for w in words]
        calls += [{"fn": "monoid_depth", "family": "poly", "word": w} for w in words[:depth_calls]]
        spec = {"families": {"poly": {"ctor": "poly_density_free", "args": [1, 1, 2, r_max]}},
                "calls": calls}
        _write_json(inputs / "kernel_spec.json", spec)
        return {"seed": seed, "spec": inputs / "kernel_spec.json", "words": words}

    def expect(self, inp: dict) -> dict:
        r_max, _, _, depth_calls = self.kernel
        family = oracles.lex_family(1, 1, 2, r_max)
        words = [tuple(int(ch) for ch in w) for w in inp["words"]]
        kernel = oracles.free_wrapped_lengths(words, family)
        kernel += oracles.free_depths(words[:depth_calls], family)
        s_lo, s_hi = map(int, self.finite[0].split(":"))
        # {aa, bb, ab, ba} is every length-2 word, so f(s) = 2s exactly.
        finite = {s: ("exact", 2 * s) for s in range(s_lo, s_hi + 1)}
        s_lo, s_hi = map(int, self.poly[0].split(":"))
        poly = {s: oracles.poly_free_value(1, 2, 3, self.poly[1], s) for s in range(s_lo, s_hi + 1)}
        return {"kernel": kernel, "finite": finite, "poly": poly}

    def ops(self, inp: dict, exp: dict, pass_dir: Path) -> list[Op]:
        trials, mc_r = self.prob
        return [
            _sim_op("sim-finite-free", ["--regime", "finite", "--monoid", "free", "--n", "2",
                                        "--word", "aa;bb;ab;ba", "--s", self.finite[0],
                                        "--r-max", str(self.finite[1])],
                    exp["finite"], pass_dir / "sim-finite-free"),
            _sim_op("sim-poly-free", ["--regime", "poly-free", "--c", "1", "--p", "2", "--n", "3",
                                      "--s", self.poly[0], "--r-max", str(self.poly[1])],
                    exp["poly"], pass_dir / "sim-poly-free"),
            _prob_free_op(trials, mc_r, inp["seed"], pass_dir / "sim-prob-free"),
            _kernel_op(inp["spec"], exp["kernel"], pass_dir / "kernels"),
        ]


# Macro values on one axis up to r_max, for families whose macros each lie on
# one axis: every coordinate is then spelled on its own, by coin change.
def _place_coins(r_max: int) -> list[int]:
    return [2**j for j in range(1, r_max.bit_length())]


def _squares(r_max: int) -> list[int]:
    return [m * m for m in range(2, math.isqrt(r_max) + 1)]


def _towers(r_max: int) -> list[int]:
    return [2 ** 2**j for j in range(6) if 2 ** 2**j <= r_max]


# regime -> (sim flags, macro values on one axis, number of axes)
_AXIS_SIMS = {
    "place": (["--regime", "place", "--b", "2", "--n", "3"], _place_coins, 3),
    "waring": (["--regime", "waring", "--k", "2", "--n", "3"], _squares, 3),
    "double-log": (["--regime", "double-log", "--b", "2"], _towers, 1),
    "finite": (["--regime", "finite", "--monoid", "abelian", "--n", "1", "--word", "5"],
               lambda r_max: [5], 1),
}


def _popcount_sum(vector: list[int]) -> int:
    """g' under base-2 place notation: each coordinate is spelled in binary."""
    return sum(bin(x).count("1") for x in vector)


class SimAbelian:
    """Free abelian monoid: numpy layered reachability inside `sim`, and the
    pure-Python box DP that only direct kernel calls reach."""

    name = "sim-abelian"

    def __init__(self, tiny: bool = False):
        if tiny:
            self.sims = {"place": ("1:4", 20), "waring": ("1:4", 30),
                         "double-log": ("1:3", 40), "finite": ("1:6", 40)}
            self.box3, self.r1, self.box2 = (5, 9), (900, 1000), (20, 30)
        else:
            self.sims = {"place": ("1:12", 120), "waring": ("1:12", 150),
                         "double-log": ("1:5", 300), "finite": ("1:40", 400)}
            self.box3, self.r1, self.box2 = (35, 45), (40000, 42000), (150, 180)

    def setup(self, seed: int, inputs: Path) -> dict:
        v3 = gen.box_vector(seed, "place3", *self.box3, 3)
        r1 = gen.scalar(seed, "place1", *self.r1)
        v2 = gen.box_vector(seed, "waring2", *self.box2, 2)
        spec = {
            "families": {
                "place3": {"ctor": "place_notation", "args": [2, 3, self.box3[1]]},
                "place1": {"ctor": "place_notation", "args": [2, 1, self.r1[1]]},
                "waring2": {"ctor": "waring", "args": [2, 2, self.box2[1]]},
            },
            "calls": [
                {"fn": "gprime_length", "family": "place3", "word": v3},
                {"fn": "monoid_depth", "family": "place3", "word": v3},
                {"fn": "gprime_length", "family": "place1", "word": [r1]},
                {"fn": "gprime_length", "family": "waring2", "word": v2},
                {"fn": "monoid_depth", "family": "waring2", "word": v2},
            ],
        }
        _write_json(inputs / "kernel_spec.json", spec)
        return {"spec": inputs / "kernel_spec.json", "v3": v3, "r1": r1, "v2": v2}

    def expect(self, inp: dict) -> dict:
        place, squares = _place_coins(self.box3[1]), _squares(self.box2[1])
        kernel = [
            _popcount_sum(inp["v3"]),
            oracles.axis_depth(place, inp["v3"]),
            _popcount_sum([inp["r1"]]),
            oracles.axis_wrapped_length(squares, inp["v2"]),
            oracles.axis_depth(squares, inp["v2"]),
        ]
        profiles = {}
        for regime, (s_range, r_max) in self.sims.items():
            _, coins, axes = _AXIS_SIMS[regime]
            lo, hi = map(int, s_range.split(":"))
            profiles[regime] = oracles.axis_profile(coins(r_max), axes, r_max,
                                                    list(range(lo, hi + 1)))
        return {"kernel": kernel, "profiles": profiles}

    def ops(self, inp: dict, exp: dict, pass_dir: Path) -> list[Op]:
        ops = []
        for regime, (s_range, r_max) in self.sims.items():
            name = f"sim-{regime}"
            flags = _AXIS_SIMS[regime][0]
            ops.append(_sim_op(name, [*flags, "--s", s_range, "--r-max", str(r_max)],
                               exp["profiles"][regime], pass_dir / name))
        ops.append(_kernel_op(inp["spec"], exp["kernel"], pass_dir / "kernels"))
        return ops


# --- corpus ---


def _graph_records(path: Path) -> tuple[dict, dict[str, dict]]:
    lines = _jsonl(path)
    return lines[0], {rec["name"]: rec for rec in lines[1:]}


def _pi_sums_to_one(rows: list[dict[str, str]]) -> bool:
    return abs(math.fsum(float(r["pi"]) for r in rows) - 1.0) <= 1e-9


class Corpus:
    """Library analysis: parse an S-expression export (`ingest`), exact
    big-integer analytics (`analyze`), ranking (`rank`), and synthetic graphs
    (`synth`), plus the deep hierarchy that `rank` cannot yet handle."""

    name = "corpus"
    HIERARCHY = 1100  # above the ~1030 levels where 2**height leaves float range

    def __init__(self, tiny: bool = False):
        self.export = (400, 20) if tiny else (10000, 100)  # elements, primitives
        self.mixed = 300 if tiny else 7000

    def setup(self, seed: int, inputs: Path) -> dict:
        elements, lines = gen.corpus_export(seed, *self.export)
        path = inputs / "export.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return {"seed": seed, "export": path, "elements": elements}

    def expect(self, inp: dict) -> dict:
        refs: dict[str, dict[str, int]] = {}
        for el in inp["elements"]:
            merged = dict(el.sig_refs)
            for t, w in (el.body_refs or {}).items():
                merged[t] = merged.get(t, 0) + w
            refs[el.name] = merged
        unwrapped = oracles.unwrapped_lengths(refs)
        t0 = {"Sort": ""}  # synthetic sink: no token count, so no ratio
        for el in inp["elements"]:
            expanded = sum(w * unwrapped[t] for t, w in refs[el.name].items())
            t0[el.name] = repr(expanded / (el.tokens_sig + (el.tokens_body or 0)))
        non_sinks = sum(1 for r in refs.values() if r)
        return {
            "elements": {el.name: el for el in inp["elements"]},
            "unwrapped": unwrapped,
            "t0": t0,
            # --filter-percentile 50 inlines the bottom half of the non-sinks
            "analyzed_rows": len(unwrapped) - math.floor(non_sinks * 50 / 100.0),
        }

    def ops(self, inp: dict, exp: dict, pass_dir: Path) -> list[Op]:
        graph = pass_dir / "ingest" / "graph.jsonl"
        deep = pass_dir / "synth-hierarchy" / "graph.jsonl"
        names = set(exp["unwrapped"])

        def check_ingest(out: Path) -> str | None:
            _, recs = _graph_records(out / "graph.jsonl")
            if set(recs) != names:
                return f"graph has {len(recs)} elements, expected {len(names)}"
            for name, el in exp["elements"].items():
                rec = recs[name]
                if (rec["kind"], rec["sig_refs"], rec["body_refs"], rec["token_count_signature"],
                        rec["token_count_body"]) != (el.kind, el.sig_refs, el.body_refs or {},
                                                     el.tokens_sig, el.tokens_body):
                    return f"element {name} does not match the export"
            return None

        def check_analyze(out: Path) -> str | None:
            rows = _rows(out / "metrics.csv")
            if len(rows) != exp["analyzed_rows"]:
                return f"metrics.csv has {len(rows)} rows, expected {exp['analyzed_rows']}"
            for row in rows:
                if int(row["unwrapped"]) != exp["unwrapped"][row["name"]]:
                    return f"unwrapped length of {row['name']} is wrong"
            return None

        def check_rank(out: Path) -> str | None:
            rows = _rows(out / "rank.csv")
            if sorted(r["name"] for r in rows) != sorted(names):
                return f"rank.csv has {len(rows)} rows, expected one per element ({len(names)})"
            if not _pi_sums_to_one(rows):
                return "pi does not sum to 1"
            for r in rows:
                if r["t0"] != exp["t0"][r["name"]]:
                    return f"t0 of {r['name']} is {r['t0']}, expected {exp['t0'][r['name']]}"
            sweep = _rows(out / "rank_sweep.csv")
            for alpha in ("0.5", "0.85"):
                part = [r for r in sweep if r["alpha"] == alpha]
                if len(part) != len(names) or not _pi_sums_to_one(part):
                    return f"rank_sweep.csv is wrong at alpha={alpha}"
            return None

        def check_mixed(out: Path) -> str | None:
            header, recs = _graph_records(out / "graph.jsonl")
            if header.get("format") != "macrolab-graph" or len(recs) != self.mixed:
                return f"expected {self.mixed} elements"
            index = {name: i for i, name in enumerate(sorted(recs))}
            for name, rec in recs.items():
                targets = {**rec["sig_refs"], **rec["body_refs"]}
                if rec["kind"] == "primitive":
                    ok = not targets
                else:
                    ok = (rec["sig_refs"] and 1 <= len(targets) <= 6
                          and all(index[t] > index[name] and 1 <= w <= 5
                                  for t, w in targets.items()))
                if not ok:
                    return f"element {name} breaks the DAG, fanout or weight limits"
            return None

        def check_hierarchy(out: Path) -> str | None:
            _, recs = _graph_records(out / "graph.jsonl")
            chain = sorted(recs)
            if len(chain) != self.HIERARCHY + 1:
                return f"expected {self.HIERARCHY + 1} levels"
            for lower, upper in zip(chain, chain[1:]):
                if recs[upper]["sig_refs"] != {lower: 2}:
                    return f"{upper} does not reference {lower} twice"
            return None

        def check_deep_rank(out: Path) -> str | None:
            rows = _rows(out / "rank.csv")
            if len(rows) != self.HIERARCHY + 1 or not _pi_sums_to_one(rows):
                return "deep hierarchy ranking is incomplete"
            return None

        def cli(name: str, command: str, args: list[str], check, **kw) -> Op:
            out = pass_dir / name
            return Op(name, command, ["cli", command, *args, "--out", str(out)], out, check, **kw)

        return [
            cli("ingest", "ingest", ["--format", "corpus", "--in", str(inp["export"])],
                check_ingest),
            cli("analyze", "analyze", ["--graph", str(graph), "--full-unwrapped",
                                       "--filter-percentile", "50"], check_analyze),
            cli("rank", "rank", ["--graph", str(graph), "--sweep", "0.5,0.85"], check_rank),
            cli("synth-mixed", "synth", ["--kind", "mixed", "--nodes", str(self.mixed),
                                         "--fanout", "6", "--seed", str(inp["seed"])],
                check_mixed),
            cli("synth-hierarchy", "synth", ["--kind", "hierarchy", "--b", "2",
                                             "--height", str(self.HIERARCHY)], check_hierarchy),
            cli("rank-deep", "rank", ["--graph", str(deep)], check_deep_rank,
                known_defect=DEEP_RANK_DEFECT),
        ]


WORKLOADS = {w.name: w for w in (SimFree, SimAbelian, Corpus)}


def is_known_defect(op: Op, res: Outcome) -> bool:
    """The operation failed the way its recorded defect fails: exit 1 with a
    traceback naming every marker."""
    return (op.known_defect is not None and res.returncode == 1
            and all(marker in res.stderr for marker in op.known_defect))
