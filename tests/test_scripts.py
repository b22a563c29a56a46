"""The scripts in scripts/ run end to end: every regime and every pipeline step exits 0."""

import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from macrolab.cli import COMMANDS, EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_regimes_reports_every_regime_ok(tmp_path, capsys):
    script = load_script("run_regimes")
    assert script.run(str(tmp_path)) == EXIT_OK
    for name in script.RUNS:
        lines = (tmp_path / name / "report.jsonl").read_text().splitlines()
        assert json.loads(lines[-1]) == {"status": "ok"}
    verdicts = [line for line in capsys.readouterr().out.splitlines() if "status=" in line]
    assert len(verdicts) == len(script.RUNS)
    assert all(line.endswith("exit=0 status=ok") for line in verdicts)


def test_hierarchy_pipeline_runs_every_step(tmp_path, capsys):
    script = load_script("hierarchy_pipeline")
    assert script.run(str(tmp_path), 2, 30) == EXIT_OK
    out = capsys.readouterr().out
    assert "deepest element: level30 at depth 30, unwrapped length 1073741824" in out
    assert "bits per level: slope 1.0000" in out
    for step, name in (("synth", "graph.jsonl"), ("analysis", "metrics.csv"),
                       ("ranking", "rank.csv")):
        assert (tmp_path / step / name).is_file()



CODE_LINES_SAMPLE = '''"""Module docstring
over two lines."""

import os  # a trailing comment: the line still counts

# a comment line


def f(a,
      b):
    """Function docstring."""
    total = (a +
             b)
    return total


class C:
    \'\'\'Class docstring.\'\'\'

    x = "a string that is no docstring"
'''


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path, capsys):
    script = load_script("code_lines")
    # import, the two lines of def f, the two of total, return, class C, x
    assert script.code_lines(CODE_LINES_SAMPLE) == 8
    (tmp_path / "a.py").write_text(CODE_LINES_SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert script.run(str(tmp_path)) == 9
    assert capsys.readouterr().out.splitlines() == ["    8 a.py", "    1 b.py", "    9 total"]


def test_readme_python_example_runs_and_prints_its_comment(tmp_path):
    """The README's Python block runs in a fresh interpreter, and its last
    line prints what that line's comment says."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    expected = code.rstrip().splitlines()[-1].rsplit("# ", 1)[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [expected]


def test_readme_sim_and_synth_examples_exit_zero(tmp_path, monkeypatch):
    """Every `macrolab sim` and `macrolab synth` command line in the README's
    shell blocks, with its backslash continuations joined, exits 0."""
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith(("macrolab sim ", "macrolab synth "))]
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == EXIT_OK, argv


def test_readme_readers_table_matches_the_option_table():
    """The README's table of the options each sim regime and synth kind reads
    lists, per choice, the flags whose read_by names it, in table order."""
    rows = re.findall(r"^\| (sim|synth) \| ([\w-]+) \| (.*) \|$", (ROOT / "README.md").read_text(),
                      re.M)
    expected = [(name, choice, ", ".join(f"`{opt.flag}`" for opt in COMMANDS[name].options
                                         if opt.read_by is not None and choice in opt.read_by))
                for name in ("sim", "synth") for choice in COMMANDS[name].options[0].choices]
    assert rows == expected
