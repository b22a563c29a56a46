#!/usr/bin/env python3
"""Count the code lines of each src/macrolab module and their total.

A code line is a physical line that holds part of a statement: blank lines,
comment lines and docstrings (the leading string of a module, class or
function) do not count, and a statement spread over several lines counts
each of them.  Prints one "<count> <module>" line per module, then the total.
"""

import argparse
import ast
import io
import os
import tokenize

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "macrolab")
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def run(src: str) -> int:
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                count = code_lines(fh.read())
            print(f"{count:5d} {name}")
            total += count
    print(f"{total:5d} total")
    return total


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", default=SRC, help="directory of modules to count")
    run(parser.parse_args().src)
