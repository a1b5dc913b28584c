"""Symmetric-function engine: the universal polynomials of lambda-ring
theory, built from power sums by Newton's identity, one cached step per
member of each alphabet, and elementary-basis expansion.
`elementary_expand` is the public splitting-principle tool for symmetric
polynomials in formal line variables; it is not the route to P_k or
P_{i,j}.  `lambda_of_multiple` gives lambda^k(kappa * b) in closed form,
one term per partition of k, as a binomial combination of the slices
`partition_slices` of the partitions of k by length.

Two alphabets give the biring's generator images: `sum_alphabet` is e_k of
the union of the tensor legs' alphabets (co-addition), `product_alphabet`
e_k of the products of one line from each (co-multiplication, and P_k).

Families used here: "x"/"y" for the two elementary alphabets of the product
polynomials, "L" for lambda-generator symbols, "e" for the generic
elementary target.
"""

from __future__ import annotations

import math
from functools import cache

from .errors import LambdaOpsError, NonSymmetricInput
from .intpoly import IntPoly

_ESYM_CACHE: dict[tuple[str, int, int], IntPoly] = {}
_PK_CACHE: dict[int, IntPoly] = {}
_PIJ_CACHE: dict[tuple[int, int], IntPoly] = {}
_PSI_CACHE: dict[int, IntPoly] = {}


def esym_poly(family: str, m: int, k: int) -> IntPoly:
    """The k-th elementary symmetric polynomial in family_1..family_m, expanded
    by e_k(x_1..x_m) = e_k(x_1..x_{m-1}) + x_m e_{k-1}(x_1..x_{m-1})."""
    if k == 0:
        return IntPoly.one()
    if k > m:
        return IntPoly.zero()
    key = (family, m, k)
    cached = _ESYM_CACHE.get(key)
    if cached is None:
        cached = (esym_poly(family, m - 1, k)
                  + IntPoly.var(family, m) * esym_poly(family, m - 1, k - 1))
        _ESYM_CACHE[key] = cached
    return cached


def elementary_expand(p: IntPoly, family: str = "x", m: int | None = None,
                      target: str = "e") -> IntPoly:
    """Rewrite a symmetric polynomial in terms of elementary symmetric ones.

    Classical leading-monomial subtraction under lexicographic order: the
    lex-greatest exponent vector of a symmetric polynomial is a partition
    (d1 >= ... >= dm), and subtracting coeff * prod e_i^(d_i - d_{i+1})
    strictly lowers it.  Coefficients may involve other variable families;
    they ride along untouched.

    Raises ValueError if p holds a `family` variable of index above m, and
    NonSymmetricInput if any adjacent transposition changes p.
    """
    indices = p.indices(family)
    if m is None:
        m = max(indices, default=0)
    elif indices and max(indices) > m:
        raise ValueError(f"{family}{max(indices)} lies above m = {m}")
    for i in range(1, m):
        xi, xj = IntPoly.var(family, i), IntPoly.var(family, i + 1)
        if p.substitute({(family, i): xj, (family, i + 1): xi}) != p:
            raise NonSymmetricInput(
                f"not symmetric under swapping {family}{i} <-> {family}{i + 1}"
            )

    work = p
    out = IntPoly.zero()
    while True:
        lead = coeff = None
        for mono, c in work.collect(family):
            degrees = mono.variables()
            vec = tuple(degrees.get((family, i), 0) for i in range(1, m + 1))
            if any(vec) and (lead is None or vec > lead):
                lead, coeff = vec, c
        if lead is None:
            return out + work

        expansion = IntPoly.one()
        emono = IntPoly.one()
        padded = lead + (0,)
        for i in range(1, m + 1):
            exp = padded[i - 1] - padded[i]
            if exp:
                expansion = expansion * esym_poly(family, m, i) ** exp
                emono = emono * IntPoly.var(target, i, exp)
        work = work - coeff * expansion
        out = out + coeff * emono


def _newton_step(n: int, elem, power, quotient=None) -> IntPoly:
    """e_n of an alphabet with e_1..e_{n-1} given by elem(1)..elem(n-1) and
    i-th power sum power(i), by Newton's identity
    n e_n = sum_{i=1..n} (-1)^(i-1) e_{n-i} p_i, the sum mapped first by
    `quotient` when given: the ideal it kills may hold terms n need not divide.
    """
    acc = IntPoly.sum_of_products(
        (elem(n - i) if i < n else IntPoly.one(), power(i) if i % 2 else -power(i))
        for i in range(1, n + 1))
    if quotient is not None:
        acc = quotient(acc)
    try:
        return acc.div_exact(n)
    except ValueError as exc:
        raise LambdaOpsError(f"Newton step {n}: {exc}") from None


@cache
def product_alphabet(k: int, families: tuple[str, ...]) -> IntPoly:
    """e_k of the products of one line from each alphabet of `families`, in
    their elementary symmetric polynomials family_i (P_k in x/y, co-multiplication
    images in their legs): one Newton step on e_1..e_{k-1} over `_product_power`."""
    return _newton_step(k, lambda t: product_alphabet(t, families),
                        lambda n: _product_power(n, families))


@cache
def sum_alphabet(k: int, families: tuple[str, ...]) -> IntPoly:
    """e_k of the union of the alphabets of `families`, in their elementary
    symmetric polynomials family_i (co-addition images in their legs): the sum
    over k_1 + ... + k_m = k of prod_i family_i[k_i], with family_i[0] = 1."""
    if not families:
        raise ValueError("an alphabet needs at least one family")
    *rest, last = families
    if not rest:
        return IntPoly.var(last, k) if k else IntPoly.one()
    return IntPoly.sum_of_products((sum_alphabet(k - j, tuple(rest)), sum_alphabet(j, (last,)))
                                   for j in range(k + 1))


def universal_pk(k: int) -> IntPoly:
    """P_k(x_1..x_k; y_1..y_k), the product alphabet of x and y: P_k(e(a); e(b))
    is the k-th elementary symmetric polynomial of the k^2 products a_r * b_s.
    `_PK_CACHE` mirrors what it returns, for the benchmark tracer."""
    if k < 1:
        raise ValueError("k must be >= 1")
    cached = _PK_CACHE.get(k)
    if cached is None:
        cached = _PK_CACHE[k] = product_alphabet(k, ("x", "y"))
    return cached


@cache
def _product_power(n: int, families: tuple[str, ...]) -> IntPoly:
    """p_n of the products of one line from each alphabet of `families`: the
    product of psi_n written in each family."""
    return math.prod([newton_psi(n).rename_family("L", f) for f in families])


@cache
def _adams_lambda(n: int, j: int) -> IntPoly:
    """psi^n(L_j) in the L family: e_j of the lines' n-th powers, whose m-th
    power sum is psi_{nm}."""
    return _newton_step(j, lambda t: _adams_lambda(n, t), lambda m: newton_psi(n * m))


def universal_pij(i: int, j: int) -> IntPoly:
    """P_{i,j}(L_1..L_{ij}): with L_m the m-th elementary symmetric polynomial
    of ij line variables, P_{i,j} equals the i-th elementary symmetric
    polynomial of the products over j-element subsets of the lines.

    The n-th power sum of those products is psi^n(L_j), so P_{i,j} is one
    Newton step on P_{1,j}..P_{i-1,j}.
    """
    if i < 1 or j < 1:
        raise ValueError("indices must be >= 1")
    key = (i, j)
    cached = _PIJ_CACHE.get(key)
    if cached is None:
        if i == 1 or j == 1:
            # lambda^1 and L_1 are the composition identity
            cached = IntPoly.var("L", i * j)
        else:
            cached = _newton_step(i, lambda t: universal_pij(t, j),
                                  lambda n: _adams_lambda(n, j))
        _PIJ_CACHE[key] = cached
    return cached


def left_linearise(p: IntPoly) -> IntPoly:
    """Sum of the monomials of p whose total degree in the x family is one."""
    return p.part_of_family_degree("x", 1)


def newton_psi(k: int) -> IntPoly:
    """The k-th power sum expressed in elementary symmetric polynomials
    (family "L") via Newton's identity
    psi_k = sum_{i=1..k-1} (-1)^(i-1) L_i psi_{k-i} + (-1)^(k-1) k L_k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    cached = _PSI_CACHE.get(k)
    if cached is None:
        cached = _PSI_CACHE[k] = IntPoly.sum_of_products(
            ((-1) ** (i - 1) * IntPoly.var("L", i),
             newton_psi(k - i) if i < k else IntPoly.const(k)) for i in range(1, k + 1))
    return cached


def lambda_of_integer(n: int, k: int) -> int:
    """Generalised binomial coefficient C(n, k) = n(n-1)...(n-k+1)/k!;
    equals lambda^k applied to the integer n in any lambda-ring.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return 1
    num = 1
    for t in range(k):
        num *= n - t
    return num // math.factorial(k)


@cache
def partition_slices(k: int, family: str = "L") -> tuple[IntPoly, ...]:
    """(D_{k,0}, ..., D_{k,k}): D_{k,r} is the t^k coefficient of
    (lambda_t(b) - 1)^r in the lambda-generators family_i = lambda^i(b), the
    sum over the partitions mu of k of length r of
    r! / prod_i m_i! prod_j family_{mu_j}, m_i being the multiplicity of the
    part i."""
    slices = [[] for _ in range(k + 1)]  # (r! / prod_i m_i!, monomial) pairs by length r

    def parts(rest: int, largest: int, length: int, multi: int, mono: IntPoly):
        if not rest:
            slices[length].append((multi, mono))
            return
        for part in range(min(rest, largest), 0, -1):
            for m in range(1, rest // part + 1):
                parts(rest - m * part, part - 1, length + m,
                      multi * math.comb(length + m, m), mono * IntPoly.var(family, part, m))

    parts(k, k, 0, 1, IntPoly.one())
    return tuple(map(IntPoly.linear_combination, slices))


def lambda_of_multiple(kappa: int, k: int, family: str = "L") -> IntPoly:
    """lambda^k(kappa * b) in the lambda-generators family_i = lambda^i(b),
    for any integer kappa: the t^k coefficient of
    lambda_t(b)^kappa = sum_r C(kappa, r) (lambda_t(b) - 1)^r, that is
    sum_r C(kappa, r) D_{k,r}.  One term per partition, whatever |kappa|.
    """
    return IntPoly.linear_combination(
        (lambda_of_integer(kappa, r), d) for r, d in enumerate(partition_slices(k, family)))
