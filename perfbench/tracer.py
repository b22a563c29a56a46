"""Spans and work counts around macrolab's public functions.

`Tracer.install` replaces each listed function on its module, and every
other macrolab module attribute bound to the same object (the names `cli`,
`expansion`, `corpus` and `interest` take with `from ... import`), by a
wrapper that records a span: name, start, end, parent span and whether it
raised.  Work counts are taken from each call's inputs and return value, so
the program itself is not changed.  Spans stay in memory until `dump` writes
them out when the traced process ends; `summarize` turns the spans of one
pass into per-function self times, call counts and per-module error counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time

clock = time.monotonic

MODULES = ("monoid", "families", "expansion", "exprs", "corpus", "analytics",
           "interest", "synth", "cli")


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _monoid_work(args, kwargs, result):
    x = args[0] if args else kwargs.get("w", kwargs.get("x"))
    word = getattr(x, "definition", x)  # monoid_depth also takes a Macro
    if word.monoid.is_abelian:
        return {"monoid.lattice_points": math.prod(d + 1 for d in word.data)}
    return {"monoid.letters_segmented": len(word.data)}


def _macros_built(args, kwargs, result):
    return {"families.macros_built": len(result) if hasattr(result, "__len__") else 0}


def _profile_work(args, kwargs, result):
    M = _arg(args, kwargs, 0, "M")
    s_values = list(_arg(args, kwargs, 1, "s_values"))
    r_max = _arg(args, kwargs, 2, "r_max")
    n = M.monoid.n
    if M.monoid.is_abelian:
        # every layer of the reachability sweep touches the whole box
        return {"expansion.lattice_cells": (r_max + 1) ** n * max(s_values)}
    # radius r is scanned until every requested s is resolved
    last = max(v.value + 1 if v.exact else r_max for v in result.entries.values())
    return {"expansion.words_scanned": sum(n**r for r in range(1, min(last, r_max) + 1))}


def _parse_failures(args, kwargs, result):
    return {"expansion.parse_failures": result.parse_failures}


def _tokens(args, kwargs, result):
    text = _arg(args, kwargs, 0, "text")
    parens = text.count("(") + text.count(")")
    atoms = len(text.replace("(", " ").replace(")", " ").split())
    return {"exprs.tokens": parens + atoms}


def _bytes_read(args, kwargs, result):
    return {"corpus.bytes_read": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _bytes_written(args, kwargs, result):
    return {"corpus.bytes_written": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _scc_count(args, kwargs, result):
    return {"analytics.scc_count": len(result)}


def _max_bits(args, kwargs, result):
    bits = max((v.bit_length() for v in result.values()), default=0)
    return {"analytics.max_unwrapped_bits": bits}


def _iterations(args, kwargs, result):
    return {"interest.pagerank_iterations": result.iterations}


# module -> public function -> work counter (None: span only)
FUNCTIONS = {
    "monoid": {"gprime_length": _monoid_work, "monoid_depth": _monoid_work},
    "families": {"build_macro_family": _macros_built},
    "expansion": {"expansion_profile": _profile_work, "sampled_rates": _parse_failures,
                  "recursive_parse_free": None, "verify_bounds": None},
    "exprs": {"parse_expr": _tokens, "collect_elems": None},
    "corpus": {"load_corpus": _bytes_read, "build_graph": None,
               "save_graph": _bytes_written, "load_graph": _bytes_read},
    "analytics": {"condense_scc": _scc_count, "unwrapped_lengths": _max_bits, "depths": None,
                  "node_metrics": None, "split_unwrapped": None, "filter_macro_set": None},
    "interest": {"element_splits": None, "compression_scores": None, "pagerank": _iterations},
    "synth": {"synth_mixed": None, "synth_hierarchy": None},
}

# Called far too often for a span each; only counted.
COUNTED_METHODS = {
    "families.contains_letters_calls": ("families", "LazyFreeMacroSet", "contains_letters"),
}

COUNTERS = ("monoid.lattice_points", "monoid.letters_segmented", "families.macros_built",
            "expansion.words_scanned", "expansion.lattice_cells", "expansion.parse_failures",
            "exprs.tokens", "corpus.bytes_written", "corpus.bytes_read", "analytics.scc_count",
            "interest.pagerank_iterations", *COUNTED_METHODS)
MAX_COUNTERS = ("analytics.max_unwrapped_bits",)
SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in FUNCTIONS.items() for f in fns)


def _accumulate(counts: dict, key: str, value) -> None:
    """Add a count, or keep the largest value for a maximum."""
    if key in MAX_COUNTERS:
        counts[key] = max(counts.get(key, value), value)
    else:
        counts[key] = counts.get(key, 0) + value


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, raised]
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, work=None):
        spans, opened = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, opened[-1] if opened else -1, False]
            opened.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                opened.pop()
            if work is not None:
                for key, value in work(args, kwargs, result).items():
                    _accumulate(self.counts, key, value)
            return result

        return traced

    def count_calls(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every listed function, wherever macrolab has bound it, and cli.main."""
        mods = {m: importlib.import_module(f"macrolab.{m}") for m in MODULES}
        table = {**FUNCTIONS, "cli": {"main": None}}
        for mod_name, fns in table.items():
            for fn_name, work in fns.items():
                orig = getattr(mods[mod_name], fn_name)
                wrapped = self.wrap(f"{mod_name}.{fn_name}", orig, work)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").split(".")[0] != "macrolab":
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
        for key, (mod_name, cls_name, meth) in COUNTED_METHODS.items():
            cls = getattr(mods[mod_name], cls_name)
            setattr(cls, meth, self.count_calls(key, getattr(cls, meth)))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def summarize(dumps: list[dict]) -> dict[str, float]:
    """Self time and calls per span name, errors per module, and summed
    counts, over the span dumps of one pass."""
    out: dict[str, float] = {}
    for dump in dumps:
        spans = dump["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _, raised), inner in zip(spans, child_time):
            out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + (end - start - inner)
            out[f"{name}_calls"] = out.get(f"{name}_calls", 0) + 1
            if raised:
                module = name.split(".")[0]
                out[f"{module}.errors"] = out.get(f"{module}.errors", 0) + 1
        for key, value in dump["counts"].items():
            _accumulate(out, key, value)
    return out
