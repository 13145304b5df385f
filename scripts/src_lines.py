#!/usr/bin/env python3
"""Size of the securakit source: ``wc -l`` lines and executable lines, per module and in total.

An executable line lies within the span (``lineno`` to ``end_lineno``) of
a statement of the module's ``ast``, is not part of a docstring, and is
neither blank nor a comment.  Decorator lines fall outside the span of the
statement they decorate, so they do not count.

Usage: python scripts/src_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/securakit`` of the tree this script sits in.
The script only reports; it exits 0 whatever the counts.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def executable_lines(source: str) -> int:
    tree = ast.parse(source)
    spanned: set[int] = set()
    docstrings: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            spanned.update(range(node.lineno, node.end_lineno + 1))
        scope = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        if scope and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = source.splitlines()
    return sum(
        1 for i in spanned - docstrings if (text := lines[i - 1].strip()) and not text.startswith("#")
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=ROOT / "src" / "securakit")
    args = parser.parse_args(argv)
    rows = []
    for path in sorted(args.package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.stem, len(source.splitlines()), executable_lines(source)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<14}{'lines':>7}{'executable':>12}")
    for name, total, executable in rows:
        print(f"{name:<14}{total:>7}{executable:>12}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
