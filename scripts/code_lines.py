#!/usr/bin/env python3
"""Count the code lines of each module in a package, and their total.

A code line is any line that is not blank, not comment-only and not part
of a module, class or function docstring.  Run with no argument to count
this checkout's `src/distnewton`, or pass another package directory.
"""

import argparse
import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCSTRING_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstring_lines.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#") and number not in docstring_lines
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("package", nargs="?", type=Path, default=REPO / "src" / "distnewton")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16} {count:5d}")
    print(f"{'total':<16} {total:5d}")


if __name__ == "__main__":
    main()
