"""Only `intpoly` knows how an IntPoly stores its monomials, and only
`exterior` knows how an ExtElem stores its exterior monomials.

Every other module reads and builds polynomials and exterior elements
through their methods (`collect`, `sorted_terms`, `linear_coefficients`,
`substitute`, `ExtElem.linear`, ...), so either layout can change inside
its own module alone.  In particular no other module reads the packed term
map (`IntPoly._terms`) or the slot registry that gives each variable its
bit field.
"""

import ast
import pathlib

import pytest

import lambdaops

PACKAGE = pathlib.Path(lambdaops.__file__).parent
NO_TERMS = ["symfun", "kbu", "evenops", "loopgrade", "models", "checks", "parser", "cli",
            "setzz"]
# raw-monomial entry points of the kernel
RAW = {"_trusted", "map_terms"}
# the packed term map and the module-level layout state of intpoly (the slot
# registry and the field constants: every `_UPPER_CASE` name it assigns)
PACKED = {"_terms"} | {
    t.id for n in ast.parse((PACKAGE / "intpoly.py").read_text(encoding="utf-8")).body
    if isinstance(n, (ast.Assign, ast.AnnAssign))
    for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
    if isinstance(t, ast.Name) and t.id.startswith("_") and t.id[1:].isupper()}


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", NO_TERMS)
def test_no_terms_attribute(name):
    found = [(n.lineno, ast.unparse(n)) for n in ast.walk(_tree(name))
             if isinstance(n, ast.Attribute) and n.attr == "terms"]
    assert not found, f"{name} reads .terms: {found}"


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


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE.glob("*.py")
                                        if p.stem != "exterior"))
def test_no_exterior_monomial_built_outside_exterior(name):
    found = []
    for n in ast.walk(_tree(name)):
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "ExtElem"
                and (n.args or n.keywords)):
            found.append((n.lineno, ast.unparse(n)))  # ExtElem(term map)
        elif isinstance(n, ast.ImportFrom) and n.module == "exterior":
            extra = {a.name for a in n.names} - {"ExtElem"}
            if extra:
                found.append((n.lineno, f"imports {sorted(extra)}"))
    assert not found, f"{name} handles raw exterior monomials: {found}"


def test_the_registry_is_found():
    assert {"_terms", "_SHIFTS", "_VARS", "_GUARD"} <= PACKED


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE.glob("*.py")
                                        if p.stem != "intpoly"))
def test_no_packed_layout_read_outside_the_kernel(name):
    found = [(n.lineno, ast.unparse(n)) for n in ast.walk(_tree(name))
             if (isinstance(n, ast.Attribute) and n.attr in PACKED)
             or (isinstance(n, ast.Name) and n.id in PACKED)]
    assert not found, f"{name} reads the packed layout: {found}"


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE.glob("*.py")
                                        if p.stem != "exterior"))
def test_no_exterior_term_map_read_outside_exterior(name):
    found = [(n.lineno, ast.unparse(n)) for n in ast.walk(_tree(name))
             if isinstance(n, ast.Attribute) and n.attr == "_coeffs"]
    assert not found, f"{name} reads ExtElem._coeffs: {found}"
