"""Only `intpoly` knows how an IntPoly stores its monomials.

Every other module reads and builds polynomials through kernel methods
(`collect`, `sorted_terms`, `linear_coefficients`, `coefficient`, ...), so
the monomial layout can change inside `intpoly.py` alone.  The exterior
algebra keeps its own layout, which `loopgrade` may read.
"""

import ast
import pathlib

import pytest

import lambdaops

PACKAGE = pathlib.Path(lambdaops.__file__).parent
NO_TERMS = ["symfun", "kbu", "evenops", "models", "checks", "parser", "cli", "setzz"]
# raw-monomial entry points of the kernel
RAW = {"_trusted", "map_terms"}


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def _terms_reads(node, inside_odd_tensor=False):
    """Yield (line, source) of each `.terms` read outside the allowed spots of
    loopgrade: values of `.ext` and the body of OddTensor."""
    if isinstance(node, ast.ClassDef) and node.name == "OddTensor":
        inside_odd_tensor = True
    if (isinstance(node, ast.Attribute) and node.attr == "terms" and not inside_odd_tensor
            and not (isinstance(node.value, ast.Attribute) and node.value.attr == "ext")):
        yield node.lineno, ast.unparse(node)
    for child in ast.iter_child_nodes(node):
        yield from _terms_reads(child, inside_odd_tensor)


@pytest.mark.parametrize("name", NO_TERMS)
def test_no_terms_attribute(name):
    found = [(n.lineno, ast.unparse(n)) for n in ast.walk(_tree(name))
             if isinstance(n, ast.Attribute) and n.attr == "terms"]
    assert not found, f"{name} reads .terms: {found}"


def test_loopgrade_reads_terms_only_of_exterior_values():
    found = list(_terms_reads(_tree("loopgrade")))
    assert not found, f"loopgrade reads IntPoly terms: {found}"


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE.glob("*.py")
                                        if p.stem != "intpoly"))
def test_no_monomial_built_outside_the_kernel(name):
    found = []
    for n in ast.walk(_tree(name)):
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "IntPoly"
                and (n.args or n.keywords)):
            found.append((n.lineno, ast.unparse(n)))  # IntPoly(term map)
        elif isinstance(n, ast.Attribute) and n.attr in RAW:
            found.append((n.lineno, ast.unparse(n)))
        elif isinstance(n, ast.ImportFrom) and n.module == "intpoly":
            extra = {a.name for a in n.names} - {"IntPoly", "Truncated"}
            if extra:
                found.append((n.lineno, f"imports {sorted(extra)}"))
    assert not found, f"{name} handles raw monomials: {found}"
