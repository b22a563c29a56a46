"""Every function in src/macrolab is called by a command, or listed with its reason.

A fixed list of commands runs in process under a `sys.setprofile` hook: the
pinned runs of test_outputs, the bad-input cases of test_cli, one run that
reads a config file and one argparse usage error.  Each `def` in the package
whose code object none of them calls must be in ALLOWED, with one of REASONS.
An allowlisted function that a command now calls fails the test too, as does
an entry that names no `def`, so the list only shrinks.

The hook runs only here, never on a timed path.
"""

import ast
import sys
from pathlib import Path

import pytest

import macrolab
from macrolab.cli import EXIT_INPUT, EXIT_OK, main
from test_cli import INPUT_ERRORS, input_error_files
from test_outputs import ABELIAN_SIM_RUNS, RUNS, SIM_RUNS, run_and_digest

PACKAGE = Path(macrolab.__file__).resolve().parent

# The reasons an unreached function may stay in src/macrolab.
ACCEPTANCE = "acceptance import"  # tests/test_acceptance.py imports it
FROM_ACCEPTANCE = "reached from an acceptance import"  # or from a criterion's oracle
KERNEL = "bench kernel"  # a perfbench kernel times it, or only such a kernel calls it
TRACED = "traced by perfbench"  # perfbench/tracer.py wraps it, or builds it
ROUND_TRIP = "round-trip generator"  # writes the inputs of the round-trip tests
ERROR_PATH = "error path that no fixed command reaches"
REASONS = (ACCEPTANCE, FROM_ACCEPTANCE, KERNEL, TRACED, ROUND_TRIP, ERROR_PATH)

ALLOWED = {
    "analytics.CondensedGraph.node_of": FROM_ACCEPTANCE,  # criterion 9's explicit filter
    "analytics.depths": TRACED,
    "corpus.DepGraph.nodes": FROM_ACCEPTANCE,  # criterion 10's transition matrix
    "corpus.DepGraph.refs": FROM_ACCEPTANCE,
    "corpus.Element.__new__": TRACED,  # load_corpus builds Elements
    "corpus.GraphNode.__new__": ACCEPTANCE,
    "corpus.GraphNode.merged_refs": FROM_ACCEPTANCE,
    "corpus.build_graph": TRACED,
    "corpus.load_corpus": TRACED,
    "corpus.save_corpus": ROUND_TRIP,
    "expansion.HalvingFailure.__init__": ERROR_PATH,  # every sampled word halves
    "expansion.expansion_function": ACCEPTANCE,
    "expansion.gprime_length_free_lazy": ACCEPTANCE,
    "expansion.recursive_parse_free": ACCEPTANCE,
    "expansion.word_str": FROM_ACCEPTANCE,
    "exprs.collect_elems": ACCEPTANCE,
    "exprs.print_expr": ROUND_TRIP,
    "families.minimal_period": FROM_ACCEPTANCE,  # a parse level whose window k(r) < 1
    "interest.PowerIterationError.__init__": ERROR_PATH,
    "monoid.AbelianLattice._axis_mask": FROM_ACCEPTANCE,  # gprime_length's masked shifts
    "monoid.Automaton.complete": FROM_ACCEPTANCE,  # gprime_length of a free word
    "monoid.Automaton.heads": FROM_ACCEPTANCE,
    "monoid.LatticeBudgetError.__init__": ERROR_PATH,  # sim checks its budget first
    "monoid.MacroSet.__len__": KERNEL,
    "monoid.MacroSet.automaton": FROM_ACCEPTANCE,
    "monoid.MacroSet.find": KERNEL,
    "monoid.MacroSet.macros": KERNEL,  # a poly family's depths name its macros
    "monoid.MacroSet.macro_for_word": KERNEL,
    "monoid.Word.from_multiplicities": ACCEPTANCE,
    "monoid.Word.is_identity": FROM_ACCEPTANCE,
    "monoid._best": FROM_ACCEPTANCE,
    "monoid._check_monoid": FROM_ACCEPTANCE,
    "monoid._free_macro_depths": KERNEL,
    "monoid._macro_depths": KERNEL,
    "monoid._reach": FROM_ACCEPTANCE,
    "monoid._reject": ERROR_PATH,
    "monoid.gprime_length": ACCEPTANCE,
    "monoid.monoid_depth": KERNEL,
    "monoid.segment_free": FROM_ACCEPTANCE,
    "monoid.wrapped_length": KERNEL,
    "synth.synth_hierarchy": TRACED,
}


def package_defs() -> dict[tuple[str, int, str], str]:
    """(file, first line of its code object, name) -> dotted name, for every
    `def` in the package; a decorated function's code starts at its first
    decorator."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                defs[str(path), first, child.name] = f"{prefix}.{child.name}"
                visit(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return defs


def run_commands(root: Path) -> None:
    for name, runs in (("outputs", RUNS), ("free", SIM_RUNS), ("abelian", ABELIAN_SIM_RUNS)):
        (root / name).mkdir()
        run_and_digest(root / name, runs)
    paths = input_error_files(root)
    out = root / "nodir"
    for argv in INPUT_ERRORS:
        assert main([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == EXIT_INPUT
    config = root / "analyze.cfg"
    config.write_text("full-unwrapped = yes  # a switch\nbin_log2 = 4\n", encoding="utf-8")
    assert main(["analyze", "--graph", str(paths["graph"]), "--config", str(config),
                 "--out", str(root / "configured")]) == EXIT_OK
    with pytest.raises(SystemExit) as usage:
        main(["sim", "--no-such-flag"])
    assert usage.value.code == EXIT_INPUT


def reached_defs(root: Path, defs: dict[tuple[str, int, str], str]) -> set[str]:
    """The names in `defs` whose code `run_commands` calls."""
    codes = set()
    sys.setprofile(lambda frame, event, arg: codes.add(frame.f_code))
    try:
        run_commands(root)
    finally:
        sys.setprofile(None)
    files = {}  # a code object's file name, resolved once per name
    reached = set()
    for code in codes:
        if code.co_filename not in files:
            files[code.co_filename] = str(Path(code.co_filename).resolve())
        name = defs.get((files[code.co_filename], code.co_firstlineno, code.co_name))
        if name is not None:
            reached.add(name)
    return reached


def test_every_function_is_reached_by_a_command_or_allowed(tmp_path):
    defs = package_defs()
    unreached = set(defs.values()) - reached_defs(tmp_path, defs)
    assert sorted(unreached - ALLOWED.keys()) == [], "no command calls these"
    assert sorted(ALLOWED.keys() - unreached) == [], "drop these from ALLOWED"
    assert set(ALLOWED.values()) <= set(REASONS)
