"""Count code lines in the causalreg package.

A code line holds at least one Python token other than a comment or a
newline, and is not part of a docstring (module, class or function).
Prints one ``count  path`` row per module, then the total.

Run from a checkout root::

    python3 tools/code_lines.py [PACKAGE_DIR]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path("src/causalreg")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
