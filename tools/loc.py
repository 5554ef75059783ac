"""Lines of code and field-branch sites per module, stdlib only.

A line of code is a line that is not blank, not a comment and not part of
a docstring (the first statement of a module, class or function, when it
is a string).  A field-branch site is an `if`, a conditional expression or
a comprehension filter whose test is the bare name p or not p, or an and/or
of which one operand is (p the characteristic, None over Q), which covers
`if p`, `if not p` and `% p if p else`, or a comparison `is QQ` /
`is not QQ`.  Sites are counted per node, so one line may hold two.

    python tools/loc.py [directory]    # default: src/bisectrix
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def lines_of_code(source: str) -> int:
    """The number of lines holding a token that is not a comment, outside
    docstrings."""
    docs = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def _is_p(test: ast.expr) -> bool:
    if isinstance(test, ast.BoolOp):
        return any(map(_is_p, test.values))
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        test = test.operand
    return isinstance(test, ast.Name) and test.id == "p"


def field_branch_sites(source: str) -> int:
    sites = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.If, ast.IfExp)):
            sites += _is_p(node.test)
        elif isinstance(node, ast.comprehension):
            sites += sum(map(_is_p, node.ifs))
        elif isinstance(node, ast.Compare):
            sites += sum(isinstance(op, (ast.Is, ast.IsNot)) and isinstance(c, ast.Name)
                         and c.id == "QQ" for op, c in zip(node.ops, node.comparators))
    return sites


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/bisectrix")
    total_loc = total_sites = 0
    print(f"{'module':<16}{'code':>7}{'sites':>7}")
    for path in sorted(root.glob("*.py")):
        source = path.read_text()
        loc, sites = lines_of_code(source), field_branch_sites(source)
        total_loc += loc
        total_sites += sites
        print(f"{path.stem:<16}{loc:>7}{sites:>7}")
    print(f"{'total':<16}{total_loc:>7}{total_sites:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
