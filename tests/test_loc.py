import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parents[1] / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

_SOURCE = '''"""Module docstring,
two lines."""

# A comment.
X = """not a docstring,
but code"""


def f(p, q):
    """One line."""
    if p:  # a site
        return q % p if p else q
    if not p and q:
        return [c for c in q if not p]
    return p is QQ or p is not QQ or p == q
'''


def test_lines_of_code_skip_blank_comment_and_docstring_lines():
    assert loc.lines_of_code(_SOURCE) == 8


def test_field_branch_sites_count_each_test_on_p_and_is_qq():
    # if p, the conditional expression, if not p and q, the comprehension
    # filter, is QQ and is not QQ; p == q is no site.
    assert loc.field_branch_sites(_SOURCE) == 6
