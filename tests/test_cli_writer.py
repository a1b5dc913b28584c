"""The CLI prints JSON through one writer, `cli._json`.

Polynomials reach it as IntPoly leaves and are written together by
IntPoly.to_json_all, from one table of the output's monomials, so no
command builds a polynomial's to_obj() tree on its way to stdout, and no
second JSON path can creep into `cli.py`.
"""

import ast
import json
import pathlib
import random

import pytest

import lambdaops
from lambdaops import cli
from lambdaops.intpoly import IntPoly
from test_cli import EVERY_KIND
from test_intpoly import rand_poly

WRITER = "_json"


def _json_dumps_outside_the_writer(node, inside=False):
    if isinstance(node, ast.FunctionDef) and node.name == WRITER:
        inside = True
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "json" and node.attr != "dumps"):
        yield node.lineno, ast.unparse(node)  # json.dump, json.JSONEncoder, ...
    if (isinstance(node, ast.Attribute) and node.attr == "dumps" and not inside):
        yield node.lineno, ast.unparse(node)
    for child in ast.iter_child_nodes(node):
        yield from _json_dumps_outside_the_writer(child, inside)


def test_json_is_encoded_only_inside_the_writer():
    source = (pathlib.Path(lambdaops.__file__).parent / "cli.py").read_text(encoding="utf-8")
    found = list(_json_dumps_outside_the_writer(ast.parse(source)))
    assert not found, f"cli.py encodes JSON outside {WRITER}: {found}"


@pytest.mark.parametrize("argv", EVERY_KIND)
def test_no_polynomial_to_obj_on_the_cli_path(argv, monkeypatch, capsys):
    def forbidden(self):
        raise AssertionError("IntPoly.to_obj called on the CLI path")

    monkeypatch.setattr(IntPoly, "to_obj", forbidden)
    assert cli.main(["--format", "json", *argv]) == 0
    json.loads(capsys.readouterr().out)


# Families no other test registers, so that their variables take slots in
# the order below, against the sorted order: ("oT2", 1) and ("oL", 9) before
# ("oL", 1).  The last family needs escaping in JSON.
OUT_OF_ORDER = [("oT2", 1), ("oL", 9), ("oL", 1), ('q"\\é', 2)]
SCALARS = [0, -7, 10**40, True, False, None, 1.5, "", "chi(2)", 'a"b', "back\\slash",
           "tab\t", "é", "\x7f"]


def _tree(rng, leaves, depth=0):
    """A random payload whose IntPoly leaves are drawn from `leaves`."""
    roll = rng.random()
    if depth >= 3 or roll < 0.35:
        return rng.choice(leaves) if rng.random() < 0.7 else rng.choice(SCALARS)
    if roll < 0.7:
        return [_tree(rng, leaves, depth + 1) for _ in range(rng.randint(0, 4))]
    keys = rng.sample(["result", "coeff", "mono", "a", "Z", "k\"ey", "é", ""], rng.randint(0, 4))
    return {k: _tree(rng, leaves, depth + 1) for k in keys}


def _reference(tree) -> str:
    def plain(x):
        if isinstance(x, IntPoly):
            return x.to_obj()
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return [plain(y) for y in x] if isinstance(x, list) else x

    return json.dumps(plain(tree), sort_keys=True, separators=(",", ":"))


def test_writer_matches_json_dumps_on_random_trees():
    for v in OUT_OF_ORDER:
        IntPoly.var(*v)
    rng = random.Random(13)
    odd = [IntPoly.var(*v, e) for v in OUT_OF_ORDER for e in (1, 2)]
    for _ in range(60):
        # leaves drawn from one small pool share most of their monomials
        pool = [rand_poly(rng, families=("oL", "x"), terms=rng.randint(1, 8)) for _ in range(3)]
        pool += [IntPoly.zero(), IntPoly.one(), IntPoly.const(-(10**30))]
        pool += [rng.choice(pool[:3]) * rng.choice(odd) + rng.choice(odd) for _ in range(2)]
        tree = _tree(rng, pool)
        assert cli._json(tree) == _reference(tree)
    # one leaf that holds every monomial of the output, beside leaves that hold some
    full = sum(odd, IntPoly.one())
    tree = {"all": full, "some": [odd[0], full - odd[1], IntPoly.zero()]}
    assert cli._json(tree) == _reference(tree)
