"""The CLI writes each output's polynomials from one monomial table.

JSON goes through one writer, `cli._json`: polynomials reach it as IntPoly
leaves and are written together by IntPoly.to_json_all, so no command
builds a polynomial's to_obj() tree on its way to stdout, and no second JSON
path can creep into `cli.py`.  Text output hands all the polynomials of one
output to IntPoly.to_text_all, the text twin of to_json_all.  Both writers
are checked against the reference forms in `tests/helpers.py`, and a text
output is checked to build exactly one table.
"""

import ast
import json
import pathlib
import random

import pytest

import lambdaops
from helpers import reference_str
from lambdaops import cli, intpoly
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


def test_text_writer_matches_the_reference_on_random_leaf_pools():
    for v in OUT_OF_ORDER:
        IntPoly.var(*v)
    rng = random.Random(31)
    odd = [IntPoly.var(*v, e) for v in OUT_OF_ORDER for e in (1, 2)]
    for _ in range(60):
        # leaves drawn from one small pool share most of their monomials
        pool = [rand_poly(rng, families=("oL", "x"), terms=rng.randint(1, 8)) for _ in range(3)]
        pool += [IntPoly.zero(), IntPoly.one(), IntPoly.const(-(10**30)), -IntPoly.one()]
        pool += [rng.choice(pool[:3]) * rng.choice(odd) - rng.choice(odd) for _ in range(2)]
        leaves = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        assert IntPoly.to_text_all(leaves) == [reference_str(p) for p in leaves]
    # one leaf that holds every monomial of the output, beside leaves that hold some
    full = sum(odd, IntPoly.const(-3))
    leaves = [odd[0], full, -full + odd[1], IntPoly.zero(), full]
    assert IntPoly.to_text_all(leaves) == [reference_str(p) for p in leaves]


def _layout_cases():
    """Leaf lists that share row layouts: named (leaves, number of row
    layouts) cases, where rows built alike, so holding one monomial
    sequence, share a layout.  One family holds a `%`, which the JSON row templates must
    double."""
    x = [IntPoly.var(*v) for v in [("oL", 1), ("oL", 2), ("oL", 3), ("p%d", 1)]]
    monos = [x[0], x[0] * x[1], x[2] * x[3], x[3] ** 2, IntPoly.one(), x[1] * x[3]]
    big = 10**31 + 7

    def poly(coeffs):
        return sum((c * m for c, m in zip(coeffs, monos)), IntPoly.zero())

    one_set = [poly([c, -c, 2 * c, -big * c, c + 1, 3]) for c in range(1, 9)]
    subset = [poly([c, 0, -big * c, 0, 7 - c, 0]) for c in (1, -1, 5, 2)]
    twin = poly([1, -2, 3, 4, 5, -big])
    equal = [twin, poly([1, -2, 3, 4, 5, -big]), twin, twin]
    return {
        "one monomial set": (one_set, 1),
        "a shared strict subset": (subset + one_set[:1] + subset[::-1], 2),
        "equal and repeated objects": (equal, 1),
        "zero": ([IntPoly.zero(), twin, IntPoly.zero()], 2),
        "all": (one_set + subset + equal + [IntPoly.zero(), -twin, IntPoly.const(-(10**40))], 4),
    }


@pytest.mark.parametrize("name", list(_layout_cases()))
def test_writers_share_row_layouts_and_match_the_reference(name):
    leaves, sets = _layout_cases()[name]
    assert IntPoly.to_text_all(leaves) == [reference_str(p) for p in leaves]
    tree = {"rows": leaves, "first": leaves[0]}
    assert cli._json(tree) == _reference(tree)
    _, layouts, rows = intpoly._table(leaves)
    assert len(layouts) == sets and len(rows) == len({id(p) for p in leaves})


# The argv lines of EVERY_KIND whose result is an odd class: an exterior
# element, which holds no polynomial and is written by ExtElem.render.
ODD_RESULT = [["compose", "l1*l2", "l3", "--trunc", "8"], ["loop", "chi(1)@L2 - chi(0)@L2"]]


@pytest.mark.parametrize("argv", [argv for argv in EVERY_KIND if argv[0] != "check"])
def test_text_output_builds_one_monomial_table(argv, monkeypatch, capsys):
    tables = []
    table = intpoly._table

    def counted(polys):
        tables.append(len(polys))
        return table(polys)

    monkeypatch.setattr(intpoly, "_table", counted)
    assert cli.main(["--format", "text", *argv]) == 0
    assert capsys.readouterr().out.strip()
    assert len(tables) == (0 if argv in ODD_RESULT else 1), tables
