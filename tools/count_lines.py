"""Count the lines of each genki module, split into code, docstring, comment and blank.

    python3 tools/count_lines.py [DIRECTORY]

DIRECTORY defaults to src/genki.  "lines" is what `wc -l` counts.  A line
is a docstring line if it lies inside a module, class or function
docstring; otherwise it is code if a token other than a comment sits on
it (a line of a multi-line string or bracket counts); otherwise a comment
line if it holds a comment; otherwise blank.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def split(source: str) -> dict[str, int]:
    """How many lines of *source* are code, docstring, comment and blank."""
    docs = docstring_lines(ast.parse(source))
    code: set[int] = set()
    comments: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number in range(1, source.count("\n") + 1):
        if number in docs:
            counts["docstring"] += 1
        elif number in code:
            counts["code"] += 1
        elif number in comments:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "genki"
    rows = []
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.name, source.count("\n"), split(source)))
    rows.append(("total", sum(r[1] for r in rows), {k: sum(r[2][k] for r in rows) for k in KINDS}))
    print(f"{'module':<16}{'lines':>7}" + "".join(f"{kind:>11}" for kind in KINDS))
    for name, lines, counts in rows:
        print(f"{name:<16}{lines:>7}" + "".join(f"{counts[kind]:>11}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
