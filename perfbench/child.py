"""One benchmark operation, run as its own process.

    python child.py [--spans PATH] cli ARG...      # the macrolab command line
    python child.py [--spans PATH] kernel SPEC OUT  # timed monoid kernel calls

`cli` behaves like the installed `macrolab` console script.  `kernel` builds
the macro families named in the JSON file SPEC, calls `gprime_length` or
`monoid_depth` once per entry of its "calls" list, and writes each result and
its time (the call alone, not the family build) to OUT.  With `--spans`, the
public functions of every macrolab module are traced and the spans are
written to PATH when the process ends, whether or not the operation raised.
"""

from __future__ import annotations

import json
import sys
import time


def run_kernel(spec_path: str, out_path: str) -> int:
    from macrolab import families, monoid

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    built = {
        key: families.build_macro_family(getattr(families.FamilySpec, f["ctor"])(*f["args"]))
        for key, f in spec["families"].items()
    }
    results, seconds = [], []
    for call in spec["calls"]:
        M = built[call["family"]]
        data = call["word"]
        if isinstance(data, str):
            data = [int(ch) for ch in data]
        word = monoid.Word(M.monoid, tuple(data))
        fn = getattr(monoid, call["fn"])
        start = time.perf_counter()
        value = fn(word, M)
        seconds.append(time.perf_counter() - start)
        results.append(value)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"results": results, "seconds": seconds}, fh)
    return 0


def main(argv: list[str]) -> int:
    tracer = None
    if argv[:1] == ["--spans"]:
        from tracer import Tracer

        spans_path, argv = argv[1], argv[2:]
        tracer = Tracer()
        tracer.install()
    mode, rest = argv[0], argv[1:]
    try:
        if mode == "cli":
            import macrolab.cli

            return macrolab.cli.main(rest)
        if mode == "kernel":
            return run_kernel(*rest)
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
