"""Count the lines of a Python package by kind.

    python3 tools/src_lines.py [PACKAGE_DIR]      # default: src/fockops

Every line of every ``*.py`` file under the directory is one of:

* code: it holds a token outside docstrings and comments (a line of a
  multi-line string that is not a docstring counts as code);
* docstring: it lies in a module, class or function docstring and holds
  no code token;
* comment: it holds a comment and nothing else;
* blank: it holds nothing but whitespace (outside a docstring).

The script prints the four counts and their sum, the total line count.
Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The number of lines of each kind in one file's source."""
    docs = docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        spanned = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in NOT_CODE and tok.start[0] not in docs:
            code.update(spanned)
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        if number in code:
            counts["code"] += 1
        elif number in docs:
            counts["docstring"] += 1
        elif number in comments:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else "src/fockops")
    files = sorted(package.rglob("*.py"))
    if not files:
        print(f"no Python files under {package}", file=sys.stderr)
        return 2
    totals = dict.fromkeys(KINDS, 0)
    for path in files:
        for kind, n in count(path.read_text(encoding="utf-8")).items():
            totals[kind] += n
    for kind in KINDS:
        print(f"{kind:<10}{totals[kind]:>7,}")
    print(f"{'total':<10}{sum(totals.values()):>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
