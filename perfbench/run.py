"""macrolab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout of the repository: it drives `src/macrolab` from that
checkout, never an installed copy, and exits with status 2 if there is none.
Every operation is a child process started one at a time (a closed loop with
one client); the parent only generates inputs, times and checks.

With `--trace 0` it runs untraced passes, at least three and as many as fit
in S seconds, and reports the mean pass time `wall_s`, the largest child
`ru_maxrss` as `peak_rss_mb`, and as `setup_s` the median time to generate
the inputs, which it does repeatedly before the first pass and again after
every pass.
With `--trace 1` it alternates untraced and traced passes instead and reports
the per-layer metrics: self time and calls of each wrapped function, work
counts, errors per module, CLI start-up and self time, the per-command totals
of the untraced passes, and the tracing overhead.

Every output is checked against an answer computed by the benchmark itself,
and every pass must reproduce the first pass's files byte for byte.  The last
line of standard output is the JSON result; the line before it gives the
machine, the pass times and the per-command totals.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

RUN_LIMIT_S = 165.0  # everything, set-up and checks included, ends inside 180 s
# Set-up is timed in bursts: (at least this many times, for at least this
# long) before the first pass and again after every pass, re-creating the
# same inputs each time; setup_s is the median of every set-up of the run.
SETUP_FIRST = (3, 0.5)
SETUP_BETWEEN = (1, 0.1)
MIN_PASSES = 3  # untraced passes per run at least, so wall_s is never one or two readings
COMMANDS = ("sim", "kernel", "synth", "ingest", "analyze", "rank")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "error_rate")):
        return "ratio"
    if name.startswith("corpus.bytes"):
        return "bytes"
    if name.endswith("_bits"):
        return "bits"
    return "count"


PER_LAYER_NAMES = (
    *(f"{span}{suffix}" for span in tracer.SPAN_NAMES for suffix in ("_s", "_calls")),
    *tracer.COUNTERS, *tracer.MAX_COUNTERS,
    *(f"{module}.errors" for module in tracer.MODULES),
    "cli.startup_s", "cli.self_s", "trace.overhead_ratio",
    *(f"{command}_s" for command in COMMANDS), "error_rate",
)
PER_LAYER = {name: _unit(name) for name in PER_LAYER_NAMES}

clock = tracer.clock


@dataclass
class PassResult:
    wall: float
    commands: dict[str, float]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # failures nobody expects
    known: list[str] = field(default_factory=list)  # the recorded defect, seen again
    digests: dict[str, str] = field(default_factory=dict)  # op -> output digest
    layers: dict[str, float] = field(default_factory=dict)
    op_seconds: dict[str, float] = field(default_factory=dict)  # op -> child wall time


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return env


def run_pass(wl, inp: dict, exp: dict, pass_dir: Path, traced: bool, deadline: float) -> PassResult:
    shutil.rmtree(pass_dir, ignore_errors=True)
    ops = wl.ops(inp, exp, pass_dir)
    for op in ops:
        op.out_dir.mkdir(parents=True, exist_ok=True)
    spans_dir = pass_dir / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    env = child_env()

    outcomes = []
    start = clock()
    for op in ops:
        spans = ["--spans", str(spans_dir / f"{op.name}.json")] if traced else []
        argv = [sys.executable, str(HERE / "child.py"), *spans, *op.argv]
        spawned = clock()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, deadline - clock()))
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
            err += "\ntimed out"
        outcomes.append((workloads.Outcome(proc.returncode, err),
                         clock() - spawned, spawned))
    res = PassResult(clock() - start, {c: 0.0 for c in COMMANDS})

    for op, (outcome, seconds, _) in zip(ops, outcomes):
        res.op_seconds[op.name] = seconds
        if op.command != "kernel":
            res.commands[op.command] += seconds
        elif outcome.returncode == 0:
            times = json.loads((op.out_dir / "kernel.json").read_text())["seconds"]
            res.commands["kernel"] += sum(times)
        res.attempted += op.calls
        if workloads.is_known_defect(op, outcome):
            res.failed += op.calls
            res.known.append(f"{op.name}: {outcome.stderr.strip().splitlines()[-1]}")
            continue
        try:
            reason = workloads.verify(op, outcome)
        except Exception as exc:  # a malformed output file is a wrong output
            reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason is None:
            res.digests[op.name] = workloads.fingerprint(op.out_dir)
        else:
            res.failed += op.calls
            res.problems.append(f"{op.name}: {reason}")
    if not res.problems:  # keep only the spans; outputs of a failed pass stay for inspection
        for op in ops:
            shutil.rmtree(op.out_dir, ignore_errors=True)

    if traced:
        dumps, startup = [], 0.0
        for op, (_, _, spawned) in zip(ops, outcomes):
            path = spans_dir / f"{op.name}.json"
            if not path.exists():
                continue
            dump = json.loads(path.read_text())
            dumps.append(dump)
            for name, begin, _, parent, _ in dump["spans"]:
                if name == "cli.main" and parent < 0:
                    startup += begin - spawned
        res.layers = tracer.summarize(dumps)
        res.layers["cli.startup_s"] = startup
        res.layers["cli.self_s"] = res.layers.pop("cli.main_s", 0.0)
        res.layers.pop("cli.main_calls", None)
    return res


def set_up(wl, seed: int, inputs: Path, burst: tuple[int, float]) -> tuple[dict, list[float]]:
    """Generate the inputs, repeatedly, for at least burst[0] times and
    burst[1] seconds; return them and the time each repetition took."""
    repeats, seconds = burst
    times: list[float] = []
    while (len(times) < repeats or sum(times) < seconds) and len(times) < 1000:
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        start = clock()
        inp = wl.setup(seed, inputs)
        times.append(clock() - start)
    return inp, times


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "platform": platform.platform()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = clock()
    if not (ROOT / "src" / "macrolab" / "__init__.py").is_file():
        print(f"no macrolab sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    seed = args.seed % 2**32  # the program takes non-negative 32-bit seeds
    wl = workloads.WORKLOADS[args.workload]()
    work = WORK / f"{args.workload}-{seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inp, setups = set_up(wl, seed, work / "inputs", SETUP_FIRST)
    exp = wl.expect(inp)
    deadline = started + RUN_LIMIT_S
    plan = [False, True] if args.trace else [False]  # trace runs alternate the two
    min_cycles = 2 if args.trace else MIN_PASSES
    passes: list[tuple[bool, PassResult]] = []
    cycles: list[float] = []  # wall time of each cycle of the plan
    # Cycles follow each other, with a set-up burst after each, while the
    # next one, were it as long as the longest so far, would end inside S
    # seconds of the first one's start and well inside the hard deadline.
    measuring = clock()
    while True:
        begun = clock()
        for traced in plan:
            passes.append((traced, run_pass(wl, inp, exp, work / f"pass{len(passes)}",
                                            traced, deadline)))
        cycles.append(clock() - begun)
        if any(p.problems for _, p in passes):
            break
        setups += set_up(wl, seed, work / "inputs", SETUP_BETWEEN)[1]
        if clock() + 1.2 * max(cycles) > deadline:
            break
        if len(cycles) >= min_cycles and \
                clock() - measuring + max(cycles) > args.seconds:
            break
    setup_s = statistics.median(setups)
    shutil.rmtree(work / "inputs", ignore_errors=True)

    results = [p for _, p in passes]
    untraced = [p for traced, p in passes if not traced]
    problems = [f"pass {i}: {msg}" for i, p in enumerate(results) for msg in p.problems]
    calls = {op.name: op.calls for op in wl.ops(inp, exp, work)}
    for i, p in enumerate(results[1:], start=1):
        for name, digest in p.digests.items():
            if results[0].digests.get(name, digest) != digest:
                p.failed += calls[name]
                problems.append(f"pass {i}: {name} output differs from pass 0")
    attempted = sum(p.attempted for p in results)
    failed = sum(p.failed for p in results)
    known = sorted({msg for p in results for msg in p.known})

    walls = [p.wall for p in untraced]
    commands = {f"{c}_s": statistics.median(p.commands[c] for p in untraced) for c in COMMANDS}
    if args.trace:
        traced = [p for t, p in passes if t]
        layers = {}
        for name in PER_LAYER:
            values = [p.layers.get(name, 0) for p in traced]
            layers[name] = max(values) if name in tracer.MAX_COUNTERS else statistics.fmean(values)
        layers.update(commands)
        layers["error_rate"] = sum(p.failed for p in untraced) / sum(p.attempted for p in untraced)
        layers["trace.overhead_ratio"] = (statistics.fmean(p.wall for p in traced)
                                          / statistics.fmean(walls) - 1)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # The mean, not the median: this host's speed wanders over seconds,
        # so a run's passes are a handful of correlated readings, and their
        # mean (the run's time in passes over their number) moved less from
        # run to run than their median did.
        values = {"wall_s": statistics.fmean(walls), "setup_s": setup_s,
                  "peak_rss_mb": peak_kb / 1024}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    for msg in known:
        print(f"known defect, counted as a failed operation: {msg}", file=sys.stderr)
    for msg in problems:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"detail": {
        "workload": args.workload, "seed": seed, "machine": machine(),
        "pass_wall_s": walls, "setup_s": setup_s, "commands": commands,
        "op_s": {name: [p.op_seconds[name] for p in untraced] for name in untraced[0].op_seconds},
        "known_defects": known, "problems": problems,
    }}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
