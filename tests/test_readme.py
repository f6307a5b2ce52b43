"""The README's "Library use" block, run as written: every expression in
it whose line ends in a comment prints the result that comment shows."""

import ast
import io
import tokenize
from fractions import Fraction
from pathlib import Path

from irrmaps.pipeline import B_ONLY
from irrmaps.ring import MultiPoly

README = Path(__file__).resolve().parents[1] / "README.md"
_b = MultiPoly.variable(B_ONLY, "b")
#: the result of each commented expression of the block
EXPECTED = {
    "p.m_basis()": {(): -(_b * _b * 3 + _b * 3 + 1), (1,): MultiPoly.constant(B_ONLY, 1)},
    "p.evaluate(1, (2, 2, 2, 2))": Fraction(9),
    "format_monomials(p)": "-1 - 3*b + l4^2 + l3^2 + l2^2 + l1^2 - 3*b^2",
    "count_exact(0, 4, 2, (2, 2, 2, 2))": 0,
    "count_exact(0, 3, 1, (2, 1, 1), allow_degree_one=True)": 1,
    "girth_count(0, 4, 2, (3, 3, 3, 3))": 29,
    "brute_count(GluingSpec(2, (4,), 1))": Fraction(21, 8),
}


def library_block() -> str:
    section = README.read_text().split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def commented_results(block: str) -> list:
    """Runs ``block`` statement by statement and gives (source, value,
    comment) for each expression with a comment on its last line."""
    comments = {tok.start[0]: tok.string.lstrip("# ")
                for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                if tok.type == tokenize.COMMENT}
    names, out = {}, []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), names)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), names)
        if stmt.end_lineno in comments:
            out.append((ast.get_source_segment(block, stmt), value, comments[stmt.end_lineno]))
    return out


def _printed(value) -> set:
    """The ways a comment may print ``value``: a dict with its values as
    ``str`` prints them, anything else as ``str`` or ``repr``."""
    if isinstance(value, dict):
        return {"{" + ", ".join(f"{k!r}: {v}" for k, v in value.items()) + "}"}
    return {str(value), repr(value)}


def test_library_block_computes_each_commented_result():
    results = commented_results(library_block())
    assert [source for source, _, _ in results] == list(EXPECTED)
    assert [value for _, value, _ in results] == list(EXPECTED.values())


def test_library_block_comments_print_the_results():
    # a comment is the result, the result followed by " (" and a remark,
    # or a label followed by ": " and the result
    for source, value, comment in commented_results(library_block()):
        assert any(comment == text or comment.startswith(text + " (")
                   or comment.endswith(": " + text) for text in _printed(value)), source
