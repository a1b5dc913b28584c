"""Only `intpoly` knows how an IntPoly stores its monomials, and only
`exterior` knows how an ExtElem stores its exterior monomials.

Every other module reads and builds polynomials and exterior elements
through their methods (`collect`, `sorted_terms`, `linear_coefficients`,
`substitute`, `ExtElem.linear`, ...), so either layout can change inside
its own module alone.
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
