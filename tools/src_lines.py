#!/usr/bin/env python3
"""Print the two line counts of src/slenderlap that ROADMAP.md tracks.

    python3 tools/src_lines.py [DIR]

DIR defaults to src/slenderlap beside this script's directory.  The first
count is every line of its *.py files (as wc -l counts them); the second
counts only the lines that hold a token other than a comment and lie
outside every module, class and function docstring.  Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """Lines holding a token other than a comment, outside docstrings."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "slenderlap")
    texts = [p.read_text() for p in sorted(root.glob("*.py"))]
    print(f"{sum(t.count(chr(10)) for t in texts)} lines, "
          f"{sum(code_lines(t) for t in texts)} code-only")


if __name__ == "__main__":
    main(sys.argv)
