"""The README's library example runs and gives the values its comments state,
and the package's export list is its public surface."""

import ast
import re
import types
from pathlib import Path

import pytest

import trialgame

README = Path(__file__).resolve().parent.parent / "README.md"


def _comment(lines, i):
    """The comment ending line ``i`` (from 0), else a comment line right after it."""
    own = lines[i].partition("#")[2]
    if own or i + 1 == len(lines) or not lines[i + 1].startswith("#"):
        return own.strip()
    return lines[i + 1].lstrip("# ")


def run_library_example():
    """Run the README's one fenced python block, statement by statement.

    Returns ``{expression source: (value, comment)}`` for each bare
    expression, with the comment that ends its line or, failing that, a
    comment line right after it ("" if neither).
    """
    blocks = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"), re.S)
    assert len(blocks) == 1
    lines = blocks[0].splitlines()
    namespace, results = {}, {}
    for stmt in ast.parse(blocks[0]).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            results[ast.unparse(stmt.value)] = value, _comment(lines, stmt.end_lineno - 1)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    return results


def test_readme_library_example_values():
    results = run_library_example()
    br, comment = results["best_response(0.05, 0.6, inst)"]
    # The comment is the repr, with "..." for the digits it leaves out.
    assert re.fullmatch(re.escape(comment).replace(r"\.\.\.", r"\d*"), repr(br)), comment
    assert br.participates and br.n_star == 166
    assert f"{br.pass_prob:.3f}" == "0.829" and f"{br.utility:.3f}" == "0.447"
    alpha_hat, comment = results["critical_alpha(inst).alpha_hat"]
    assert comment.startswith("0.052 ")
    assert alpha_hat == pytest.approx(0.052, rel=1e-12)
    assert len(results["sweep_alpha([0.01, 0.05, 0.1], inst, prior)"][0]) == 3


def test_export_list_is_the_public_surface():
    # A star import fails on a name that no longer resolves, so a removed
    # function cannot leave a stale export behind; and no public name of the
    # package goes unlisted.
    namespace = {}
    exec("from trialgame import *", namespace)
    public = {name for name, value in vars(trialgame).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(trialgame.__all__)
