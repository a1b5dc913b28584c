"""The CLI prints JSON through one writer, `cli._json`.

Polynomials reach it as IntPoly leaves and are written by IntPoly.to_json,
so no command builds a polynomial's to_obj() tree on its way to stdout, and
no second JSON path can creep into `cli.py`.
"""

import ast
import json
import pathlib

import pytest

import lambdaops
from lambdaops import cli
from lambdaops.intpoly import IntPoly
from test_cli import EVERY_KIND

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
