"""Independent brute-force oracles used across the test suite.

The integer oracles work on plain integers (or lists of them) so that
nothing depends on the polynomial kernel they check.  The reference
coproducts are the slow, literal constructions that the fast paths of
`lambdaops.evenops` and `lambdaops.loopgrade` replaced; they use only public
names, and apply gamma through `reference_gamma`, the substitution into P_k
that the closed form of `lambdaops.symfun.lambda_of_multiple` replaced.
`reference_elementary_from_power_sums` and `reference_psi` are the Newton
recursions that rebuilt each alphabet's sequence on every call, before P_k,
P_{i,j}, psi_k and the three-leg co-multiplication each took one cached
Newton step, and `reference_gen_compose` is the case-by-case recursion that
composition replaced by one Newton step over Adams images.
`reference_sigma_gen` and `reference_loop_polynomial` are the antipode
recursion and the left-linearised P_k that the closed forms gamma(-1)(L_k)
and (-1)^(k-1) psi_k replaced, and `reference_comult_gen` is the sum-rule
construction of the co-multiplication's generator images that the binomial
combination of a fixed basis replaced.  `reference_comult_image` is the
renaming of P_k in x/y into the tensor legs that building each product
alphabet in its own families replaced.
`reference_sum_alphabet` is the enumeration of compositions that the
iterated co-addition used before the sum alphabet, `reference_coadd_image`
the loop over i + j = k it replaced for two legs, and
`reference_un_restrict` and `reference_bun_restrict` are the restrictions
whose generator images were guarded against indices above the target rank
before the constructors' quotient alone dropped them.
`reference_psi_girard_waring` (one term per partition) and
`reference_pk_cauchy` (the dual Cauchy identity, with each Schur function a
dual Jacobi-Trudi determinant) are classical formulas that take no Newton
step and divide nothing.
`reference_evaluate` and `reference_substitute` are the per-term loops that
the memoised `IntPoly.evaluate` and the grouped `IntPoly.substitute`
replaced, and `reference_line_decomposition` the split
into line classes with multiplicities that the line-class models used
before psi^k became the ring map raising each line to its k-th power.
`TuplePoly`, the polynomial kernel over tuple monomials, is the reference
for the packed `IntPoly`, and the argparse parser at the end is the
reference for `lambdaops.cli.parse_args`.  A few
constructors and maps that only the tests use (`from_obj`, `from_json`,
`retruncate`, `un_one`, `fn_sum`, ...) live here rather than in the package.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math

from lambdaops.cli import cmd_act, cmd_check, cmd_compose, cmd_coprod, cmd_loop, cmd_upoly
from lambdaops.exterior import ExtElem
from lambdaops.intpoly import IntPoly
from lambdaops.kbu import KBUElem
from lambdaops.models import BUnElem, SplitModel, UnElem, model_psi
from lambdaops.parser import ParseError
from lambdaops.setzz import FnProd, FnSum


def esym(vals, k: int) -> int:
    """Elementary symmetric polynomial of an integer list, by the standard DP."""
    if k == 0:
        return 1
    if k > len(vals):
        return 0
    row = [1] + [0] * k
    for v in vals:
        for j in range(k, 0, -1):
            row[j] += v * row[j - 1]
    return row[k]


def grid_products(a, b) -> list[int]:
    return [x * y for x in a for y in b]


def subset_products(vals, j: int) -> list[int]:
    return [math.prod(s) for s in itertools.combinations(vals, j)]


def power_sum(vals, k: int) -> int:
    return sum(v**k for v in vals)


def binom(n: int, k: int) -> int:
    """Generalised binomial for possibly negative n, by the product formula."""
    if k < 0:
        return 0
    num = 1
    for t in range(k):
        num *= n - t
    return num // math.factorial(k)


def pk_assignment(a, b, k: int) -> dict:
    """Variable assignment sending x_i, y_j to elementary symmetric values."""
    assign = {("x", i): esym(a, i) for i in range(1, k + 1)}
    assign.update({("y", j): esym(b, j) for j in range(1, k + 1)})
    return assign


@functools.cache
def reference_gamma(kappa: int, k: int, family: str = "L"):
    """gamma(kappa)(L_k) = lambda^k(kappa * b) as the construction that the
    closed form replaced: P_k at x_i = C(kappa, i), its y_j renamed to
    `family`; 1 for k = 0."""
    from lambdaops.symfun import universal_pk

    if k == 0:
        return IntPoly.one()
    images = {("x", i): IntPoly.const(binom(kappa, i)) for i in range(1, k + 1)}
    return universal_pk(k).substitute(images).rename_family("y", family)


def reference_comult_image(k: int, left: str, right: str):
    """The image of L_k under co-multiplication as P_k(x; y) with x and y
    renamed at once to the legs `left` and `right`."""
    from lambdaops.symfun import universal_pk

    return IntPoly.rename_all([universal_pk(k)], {"x": left, "y": right})[0]


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def reference_sum_alphabet(k: int, families):
    """e_k of the union of the alphabets of `families` as the enumeration of
    the compositions k_1 + ... + k_m = k that the iterated co-addition used
    before the sum alphabet: one product of family_i[k_i] per composition."""
    out = IntPoly.zero()
    for comp in _compositions(k, len(families)):
        term = IntPoly.one()
        for family, kt in zip(families, comp):
            if kt:
                term = term * IntPoly.var(family, kt)
        out = out + term
    return out


def reference_coadd_image(k: int, left: str = "T1", right: str = "T2"):
    """The image of L_k under co-addition as the loop over i + j = k that the
    sum alphabet of the two legs replaced."""
    out = IntPoly.var(left, k) + IntPoly.var(right, k)
    for i in range(1, k):
        out = out + IntPoly.var(left, i) * IntPoly.var(right, k - i)
    return out


@functools.cache
def _reference_product_gen(s: int, n: int):
    """lambda^n(ab + s*a) by the sum rule: the sum over i + j = n of
    P_i(T1; T2) gamma(s)(L_j)[T1]."""
    from lambdaops.kbu import comult_image

    return IntPoly.sum_of_products(
        (comult_image(i) if i else IntPoly.one(), reference_gamma(s, n - i, "T1"))
        for i in range(n + 1))


def reference_comult_gen(rho: int, s: int, k: int):
    """lambda^k(ab + s*a + rho*b), the generator image of co-multiplication
    entry (rho, s), by the sum rule as it was built before the binomial basis
    of `evenops._comult_basis`: the sum over n + m = k of lambda^n(ab + s*a)
    gamma(rho)(L_m)[T2], each gamma from the substitution into P_k."""
    return IntPoly.sum_of_products(
        (_reference_product_gen(s, n), reference_gamma(rho, k - n, "T2")) for n in range(k + 1))


def reference_colinear(kappa: int, poly, family: str = "L"):
    """gamma(kappa) on a polynomial in `family`, generator by generator
    through reference_gamma."""
    return poly.substitute_family(family, lambda k: reference_gamma(kappa, k, family))


@functools.cache
def reference_sigma_gen(k: int):
    """The antipode of L_k by the recursion sum_{i+j=k} L_i sigma(L_j) = 0
    that the closed form gamma(-1)(L_k) replaced; 1 for k = 0."""
    if k == 0:
        return IntPoly.one()
    acc = IntPoly.zero()
    for i in range(1, k + 1):
        acc = acc + IntPoly.var("L", i) * reference_sigma_gen(k - i)
    return -acc


# -- reference Newton recursions ------------------------------------------------


def reference_elementary_from_power_sums(k: int, power):
    """e_k of an alphabet whose n-th power sum is power(n), by Newton's
    identity n e_n = sum_{i=1..n} (-1)^(i-1) e_{n-i} p_i, rebuilding
    e_1..e_{k-1} on every call: the construction that one cached Newton step
    per alphabet replaced."""
    elem = [IntPoly.one()]
    powers = []
    for n in range(1, k + 1):
        powers.append(power(n))
        acc = IntPoly.zero()
        for i in range(1, n + 1):
            step = elem[n - i] * powers[i - 1]
            acc = acc + step if i % 2 else acc - step
        elem.append(acc.div_exact(n))
    return elem[k]


@functools.cache
def reference_psi(k: int):
    """psi_k in the L family by Newton's recursion, one accumulated term at a
    time."""
    if k == 1:
        return IntPoly.var("L", 1)
    result = IntPoly.zero()
    for i in range(1, k):
        sign = 1 if i % 2 == 1 else -1
        result = result + sign * (IntPoly.var("L", i) * reference_psi(k - i))
    sign = 1 if k % 2 == 1 else -1
    return result + sign * k * IntPoly.var("L", k)


def reference_pk(k: int):
    """P_k: e_k of the products a_r b_s, whose n-th power sum is p_n(a) p_n(b)."""
    return reference_elementary_from_power_sums(k, lambda n: (
        reference_psi(n).rename_family("L", "x") * reference_psi(n).rename_family("L", "y")))


def reference_pij(i: int, j: int):
    """P_{i,j}: e_i of an alphabet whose n-th power sum is e_j of the lines'
    n-th powers, whose m-th power sum is psi_{nm}; no shortcut at i or j = 1."""
    return reference_elementary_from_power_sums(i, lambda n: reference_elementary_from_power_sums(
        j, lambda m: reference_psi(n * m)))


def reference_loop_polynomial(k: int):
    """P^L_k as the construction that (-1)^(k-1) psi_k replaced: the
    left-linear part of P_k at the sphere values x_i = (-1)^(i-1), its y_j
    renamed to L_j."""
    from lambdaops.symfun import left_linearise, universal_pk

    sphere = {("x", i): IntPoly.const((-1) ** (i - 1)) for i in range(1, k + 1)}
    return left_linearise(universal_pk(k)).substitute(sphere).rename_family("y", "L")


def reference_comult3(k: int):
    """L_k under the iterated co-multiplication in the legs T1, T2, T3: e_k of
    the products a_r b_s c_t."""
    return reference_elementary_from_power_sums(k, lambda n: math.prod(
        reference_psi(n).rename_family("L", f"T{leg}") for leg in (1, 2, 3)))


# -- classical oracles that take no Newton step ---------------------------------


def _partitions(n: int, largest: int):
    """The partitions of n into parts at most `largest`, as lists of (part,
    multiplicity) with the parts decreasing."""
    if n == 0:
        yield []
        return
    for part in range(min(n, largest), 0, -1):
        for m in range(1, n // part + 1):
            for rest in _partitions(n - m * part, part - 1):
                yield [(part, m)] + rest


def reference_psi_girard_waring(n: int):
    """psi_n in the L family by the Girard-Waring formula, one term per
    partition lambda of n: (-1)^(n - l) n (l - 1)! / prod_i m_i! L_lambda, with
    l the length of lambda and m_i the multiplicity of its part i."""
    terms = {}
    for parts in _partitions(n, n):
        length = sum(m for _, m in parts)
        coeff = n * math.factorial(length - 1) // math.prod(math.factorial(m) for _, m in parts)
        terms[tuple(("L", part, m) for part, m in parts)] = (-1) ** (n - length) * coeff
    return IntPoly(terms)


def _dual_jacobi_trudi(shape, family: str):
    """det(family_{shape_i - i + j}) with family_0 = 1 and negative indices 0:
    the Schur function of the conjugate of `shape` in the elementary
    symmetric polynomials `family`, expanded along its rows and memoised on
    the columns left."""
    @functools.cache
    def minor(row: int, cols: tuple):
        if row == len(shape):
            return IntPoly.one()
        total = IntPoly.zero()
        for pos, col in enumerate(cols):
            index = shape[row] - row + col
            if index >= 0:
                entry = IntPoly.var(family, index) if index else IntPoly.one()
                term = entry * minor(row + 1, cols[:pos] + cols[pos + 1:])
                total = total + term if pos % 2 == 0 else total - term
        return total

    return minor(0, tuple(range(len(shape))))


def reference_pk_cauchy(k: int):
    """P_k(x; y) by the dual Cauchy identity e_k(ab) = sum over lambda of k of
    s_lambda(a) s_lambda'(b), each Schur function by the dual Jacobi-Trudi
    determinant in the elementary symmetric polynomials x or y."""
    total = IntPoly.zero()
    for parts in _partitions(k, k):
        shape = [part for part, m in parts for _ in range(m)]
        conjugate = [sum(1 for part in shape if part > i) for i in range(shape[0])]
        total = total + _dual_jacobi_trudi(conjugate, "x") * _dual_jacobi_trudi(shape, "y")
    return total


# -- reference composition --------------------------------------------------------


@functools.cache
def reference_gen_compose(g: int, ypoly):
    """L_g o y for a reduced y by the four-case recursion that one Newton step
    over the Adams images psi^n(y) replaced: a sum splits off its first term
    by co-addition, an integer multiple goes through gamma, a generator L_j
    gives P_{g,j}, and a product substitutes into P_g the composites with its
    first variable and with the rest."""
    from lambdaops.kbu import gamma_gen
    from lambdaops.symfun import universal_pij, universal_pk

    if g == 0:
        return IntPoly.one()
    if ypoly.is_zero:
        return IntPoly.zero()
    terms = ypoly.sorted_terms()
    if len(terms) > 1:
        head = terms[0][1] * terms[0][0]
        return IntPoly.sum_of_products(
            (reference_gen_compose(i, head), reference_gen_compose(g - i, ypoly - head))
            for i in range(g + 1))
    ((mono, c),) = terms
    if c != 1:
        return gamma_gen(c, g).substitute_family("L", lambda i: reference_gen_compose(i, mono))
    variables = mono.variables()
    first = min(variables)
    if variables == {first: 1}:
        return universal_pij(g, first[1])
    rest = math.prod([IntPoly.var(f, i, e - ((f, i) == first)) for (f, i), e in variables.items()],
                     start=IntPoly.one())
    images = {}
    for i in range(1, g + 1):
        images[("x", i)] = reference_gen_compose(i, IntPoly.var(*first))
        images[("y", i)] = reference_gen_compose(i, rest)
    return universal_pk(g).substitute(images)


# -- reference coproducts of even operations -------------------------------------


def pairwise_op_is_primitive(r):
    """op_is_primitive as the loop it replaced: every leg co-added and renamed
    at its own index, and one addition and comparison for each of the
    3W^2 + 3W + 1 pairs (i, j) with |i|, |j|, |i+j| <= W."""
    from lambdaops.intpoly import IntPoly
    from lambdaops.kbu import coadd

    W = r.window
    zero = IntPoly.zero()
    coadds = {d: coadd(x).poly for d, x in r.table.items()}
    left = {d: x.poly.rename_family("L", "T1") for d, x in r.table.items()}
    right = {d: x.poly.rename_family("L", "T2") for d, x in r.table.items()}
    for i in range(-W, W + 1):
        for j in range(max(-W, -W - i), min(W, W - i) + 1):
            if coadds.get(i + j, zero) != left.get(i, zero) + right.get(j, zero):
                return False
    return True


def reference_op_comult(r):
    """Delta-x(r) term by term: every monomial of the four-leg expansion is
    paired with every divisor pair of its index, gamma applied afresh."""
    from lambdaops.evenops import EvenOpTensor, divisor_pairs
    from lambdaops.intpoly import IntPoly
    from lambdaops.kbu import coadd_multi, comult_image

    entries = {}
    for d, x in r.table.items():
        four = coadd_multi(x, 3).substitute_family("T1", lambda k: comult_image(k, "U", "V"))
        for mono, c in four.terms.items():
            parts = {"U": [], "V": [], "T2": [], "T3": []}
            for (f, i, e) in mono:
                parts[f].append(("L", i, e))
            u_poly, v_poly, t2_poly, t3_poly = (
                IntPoly({tuple(parts[f]): 1}) for f in ("U", "V", "T2", "T3"))
            for rho, s in divisor_pairs(d, r.window):
                left = u_poly * reference_colinear(s, t2_poly)
                right = v_poly * reference_colinear(rho, t3_poly)
                prod = left.rename_family("L", "T1") * right.rename_family("L", "T2") * c
                entries[(rho, s)] = entries.get((rho, s), IntPoly.zero()) + prod
    return EvenOpTensor(entries, r.trunc, r.window)


def reference_op_is_primitive(r):
    """Delta+(r) = r (x) 1 + 1 (x) r, by building both sides as whole
    tensors and comparing the entries whose index sum stays in the window."""
    from lambdaops.evenops import EvenOp, op_coadd, tensor_of_ops
    from lambdaops.intpoly import IntPoly
    from lambdaops.kbu import KBUElem
    from lambdaops.setzz import const

    one = EvenOp.from_pairs([(const(1), KBUElem.from_int(1, r.trunc))], r.trunc, r.window)
    left = tensor_of_ops(r, one).entries
    right = tensor_of_ops(one, r).entries
    coadd = op_coadd(r).entries
    zero = IntPoly.zero()
    keys = set(left) | set(right) | set(coadd)
    return all(
        coadd.get(k, zero) == left.get(k, zero) + right.get(k, zero)
        for k in keys
        if abs(k[0] + k[1]) <= r.window
    )


# -- per-indicator constructions ------------------------------------------------
# The even-operation maps before they shared work between equal or
# proportional ring legs: each index of the window is handled on its own.


def reference_from_pairs(pairs, trunc, window):
    """EvenOp.from_pairs with the leg scaled afresh at every index."""
    from lambdaops.evenops import EvenOp
    from lambdaops.kbu import KBUElem

    table = {}
    for f, x in pairs:
        if isinstance(x, int):
            x = KBUElem.from_int(x, trunc)
        for d in range(-window, window + 1):
            v = f.ev(d)
            if v:
                table[d] = v * x if d not in table else table[d] + v * x
    return EvenOp(table, trunc, window)


def reference_compose_even(r, s):
    """compose_even with one compose_kbu call per index of the window."""
    from lambdaops.errors import WindowExhausted
    from lambdaops.evenops import EvenOp
    from lambdaops.kbu import KBUElem, compose_kbu, cozero

    W = r.window
    zero = KBUElem.from_int(0, r.trunc)
    table = {}
    for a in range(-W, W + 1):
        y_a = s.table.get(a, zero)
        c_a = cozero(y_a)
        if abs(c_a) > W:
            raise WindowExhausted(f"augmentation {c_a} outside window {W}")
        if c_a in r.table:
            table[a] = compose_kbu(r.table[c_a], y_a - c_a)
    return EvenOp(table, r.trunc, r.window)


def reference_comult_entry(r, rho, s):
    """Entry (rho, s) of Delta-x(r) from the four-leg expansion of x_{rho*s}
    itself, grouped by its b(3) and b(2) monomials, nothing shared."""
    from lambdaops.intpoly import IntPoly
    from lambdaops.kbu import coadd_multi, comult_image

    if abs(rho) > r.window or abs(s) > r.window or rho * s not in r.table:
        return IntPoly.zero()

    def gamma(kappa, mono, src, dst):
        return reference_colinear(kappa, mono, src).rename_family(src, dst)

    x = r.table[rho * s]
    four = coadd_multi(x, 3).substitute_family("T1", lambda k: comult_image(k, "U", "V"))
    out = IntPoly.zero()
    for t3, by_t3 in four.collect("T3"):
        inner = IntPoly.zero()
        for t2, b1 in by_t3.collect("T2"):
            inner = inner + b1.rename_family("U", "T1").rename_family("V", "T2") * gamma(
                s, t2, "T2", "T1")
        out = out + inner * gamma(rho, t3, "T3", "T2")
    return out


def reference_op_coadd(r):
    """Delta+(r) with the ring leg co-added afresh at every index."""
    from lambdaops.evenops import EvenOpTensor
    from lambdaops.kbu import coadd

    W = r.window
    entries = {}
    for d, x in r.table.items():
        for i in range(max(-W, d - W), min(W, d + W) + 1):
            entries[(i, d - i)] = coadd(x).poly
    return EvenOpTensor(entries, r.trunc, r.window)


# -- reference odd coproduct ----------------------------------------------------


class OddTensor:
    """Tensor square of the exterior algebra with the Koszul sign rule, keyed
    by (left monomial, right monomial): the construction that the two-leg
    exterior algebra of `loopgrade.coadd_odd` replaced."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return OddTensor(out)

    def __mul__(self, other):
        from lambdaops.exterior import wedge_mono

        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                left = wedge_mono(a1, a2)
                right = wedge_mono(b1, b2)
                if left is None or right is None:
                    continue
                s1, ml = left
                s2, mr = right
                koszul = -1 if (len(b1) % 2 == 1 and len(a2) % 2 == 1) else 1
                key = (ml, mr)
                v = out.get(key, 0) + koszul * s1 * s2 * c1 * c2
                if v:
                    out[key] = v
                else:
                    del out[key]
        return OddTensor(out)

    def __eq__(self, other):
        return isinstance(other, OddTensor) and self.terms == other.terms


def reference_coadd_odd(x) -> OddTensor:
    """Co-addition of an OddOp with primitive generators l_k, as an OddTensor."""
    total = OddTensor()
    for mono, c in x.ext.terms.items():
        acc = OddTensor({((), ()): c})
        for i in mono:
            acc = acc * OddTensor({((i,), ()): 1, ((), (i,)): 1})
        total = total + acc
    return total


def reference_odd_is_primitive(x) -> bool:
    expected = OddTensor()
    for mono, c in x.ext.terms.items():
        if mono:
            expected = expected + OddTensor({(mono, ()): c, ((), mono): c})
        else:
            expected = expected + OddTensor({((), ()): c})
    return reference_coadd_odd(x) == expected


def two_leg_terms(t) -> dict:
    """An ExtElem on (leg, index) keys as {(left monomial, right monomial): c};
    the left leg's keys sort first, so no sign arises."""
    return {
        (tuple(i for leg, i in m if leg == 0), tuple(i for leg, i in m if leg == 1)): c
        for m, c in t.terms.items()
    }


# -- reference lambda values of the models ------------------------------------


def reference_line_decomposition(model, a) -> list:
    """a = sum n_i C_i over line classes C_i, as (C_i, n_i) pairs: the
    decomposition that the line-class models split elements into before psi^k
    became the ring map C -> C^k.  On split models each monomial is a line
    class; on cp:m the classes are the powers (1 + u)^j, and as
    u^i = ((1 + u) - 1)^i, n_j = sum over i of a_i C(i, j) (-1)^(i-j)."""
    if isinstance(model, SplitModel):
        return a.sorted_terms()
    u = IntPoly.var("u", 1)
    coeffs = [a.coefficient(u ** i) for i in range(model.m + 1)]
    out = []
    for j in range(model.m + 1):
        n_j = sum(coeffs[i] * binom(i, j) * (-1) ** (i - j) for i in range(j, model.m + 1))
        if n_j:
            out.append((model._reduce((u + 1) ** j), n_j))
    return out


def reference_lam(model, k: int, a):
    """lambda^k(a) from a fresh product of the line series truncated at t^k,
    for every k: no Newton step and no Adams value, unlike the series that
    the models grow.  For line-class models it reads
    `reference_line_decomposition` and the model's `_reduce`; the
    integer-like models (zz, coi) get the binomial of the augmentation."""
    from lambdaops.intpoly import IntPoly
    from lambdaops.models import LineClassModel

    if not isinstance(model, LineClassModel):
        return model.from_int(binom(model.eps(a), k))
    series = [IntPoly.one()] + [IntPoly.zero() for _ in range(k)]
    for cls, mult in reference_line_decomposition(model, a):
        powers = [IntPoly.one()]
        for _ in range(k):
            powers.append(model._reduce(powers[-1] * cls))
        factor = [binom(mult, i) * powers[i] for i in range(k + 1)]
        nxt = [IntPoly.zero() for _ in range(k + 1)]
        for i in range(k + 1):
            for j in range(k + 1 - i):
                nxt[i + j] = nxt[i + j] + model._reduce(series[i] * factor[j])
        series = nxt
    return series[k]


def reference_evaluate(poly, assign, ring=None):
    """`poly` with every variable assigned, term by term: each coefficient
    times its variables, one `mul` per unit of exponent, with no value shared
    between terms, summed by `add` (integer arithmetic without `ring`)."""
    if ring is None:
        total = 0
        for mono, c in poly.terms.items():
            for f, i, e in mono:
                c *= assign[(f, i)] ** e
            total += c
        return total
    total = ring.from_int(0)
    for mono, c in poly.terms.items():
        acc = ring.from_int(c)
        for f, i, e in mono:
            for _ in range(e):
                acc = ring.mul(acc, assign[(f, i)])
        total = ring.add(total, acc)
    return total


def reference_substitute(poly, images):
    """`poly` with each variable of `images` replaced by its image, term by
    term: each coefficient times its untouched variables and the power of
    each substituted variable's image, with no product shared between terms."""
    total = IntPoly.zero()
    for mono, c in poly.terms.items():
        acc = IntPoly.const(c)
        for f, i, e in mono:
            image = images.get((f, i))
            if image is None:
                acc = acc * IntPoly.var(f, i, e)
            else:
                acc = acc * (IntPoly.const(image) if isinstance(image, int) else image) ** e
        total = total + acc
    return total


# -- constructors and maps only the tests use ---------------------------------------


def from_obj(obj) -> IntPoly:
    """The polynomial of a `to_obj()` list of terms."""
    terms: dict[tuple, int] = {}
    for t in obj:
        mono = tuple(sorted((f, int(i), int(e)) for f, i, e in t["mono"]))
        terms[mono] = int(t["coeff"])
    return IntPoly(terms)


def from_json(text: str) -> IntPoly:
    """The polynomial of a `to_json()` text."""
    import json

    return from_obj(json.loads(text))


def retruncate(x: KBUElem, level: int) -> KBUElem:
    """The projection of x to truncation `level`."""
    return KBUElem(x.poly, level)


def un_one(n: int) -> UnElem:
    """The unit of the rank-n model."""
    return UnElem(n, ExtElem.unit(1))


def reference_un_restrict(x: UnElem) -> UnElem:
    """Restriction of the exterior model to the rank below with each
    generator image guarded against indices above the target rank, as it was
    before the constructor's quotient alone dropped them."""
    target = x.rank - 1

    def image(k: int) -> ExtElem:
        out = ExtElem()
        if k <= target:
            out = out + ExtElem.generator(k)
        if 1 <= k - 1 <= target:
            out = out + ExtElem.generator(k - 1)
        return out

    return UnElem(target, x.ext.substitute(image))


def reference_bun_restrict(x: BUnElem) -> BUnElem:
    """Restriction of the polynomial model to the rank below with each
    generator image guarded against indices above the target rank, as it was
    before the constructor's quotient alone dropped them."""
    target = x.rank - 1

    def image(k: int) -> IntPoly:
        out = IntPoly.zero()
        if k <= target:
            out = out + IntPoly.var("B", k)
        if k == 1:
            out = out + IntPoly.one()
        elif k - 1 <= target:
            out = out + IntPoly.var("B", k - 1)
        return out

    return BUnElem(target, x.poly.substitute_family("B", image))


def fn_sum(*parts):
    return FnSum(tuple(parts))


def fn_prod(*parts):
    return FnProd(tuple(parts))


def fn_equal_on_window(f, g, w) -> bool:
    return all(f.ev(d) == g.ev(d) for d in w.indices())


def suspension_value(w, model, q):
    """Action of an odd operation through the double suspension: with u the
    reduced sphere class, w = sum c_k l_k applied to u * q evaluates to
    u * sum c_k (-1)^(k-1) psi^k(q); decomposables act as zero."""
    total = model.from_int(0)
    for k, c in w.generator_coefficients().items():
        v = model_psi(model, k, q)
        signed = model.mul(model.from_int(c * (-1) ** (k - 1)), v)
        total = model.add(total, signed)
    return total


# -- reference serialisation ----------------------------------------------------


def reference_to_json(p) -> str:
    """The JSON text the CLI wrote before IntPoly.to_json: the to_obj() tree
    encoded by json.dumps with sorted keys and no spaces."""
    import json

    return json.dumps(p.to_obj(), sort_keys=True, separators=(",", ":"))


def reference_str(p) -> str:
    """The text form of IntPoly.__str__, rebuilt from the to_obj() form."""
    parts = []
    for term in p.to_obj():
        c = int(term["coeff"])
        factors = "*".join(f"{f}{i}" if e == 1 else f"{f}{i}^{e}" for f, i, e in term["mono"])
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = factors
        else:
            body = f"{abs(c)}*{factors}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# -- reference polynomial kernel ------------------------------------------------
# The IntPoly kernel before monomials were packed into integers: a monomial is
# a sorted tuple of (family, index, exponent) triples and a product merges two
# of them.  It has no exponent bound.


def _tuple_mono_mul(a, b):
    """Merge two sorted monomials, adding exponents of shared variables."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (fa, xa, ea), (fb, xb, eb) = a[i], b[j]
        if (fa, xa) == (fb, xb):
            out.append((fa, xa, ea + eb))
            i += 1
            j += 1
        elif (fa, xa) < (fb, xb):
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return tuple(out) + a[i:] + b[j:]


def _tuple_add_product(out, a, b):
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = _tuple_mono_mul(ma, mb)
            v = out.get(m, 0) + ca * cb
            if v:
                out[m] = v
            else:
                del out[m]


class TuplePoly:
    """Sparse integer polynomial over tuple monomials; the oracle of the
    packed IntPoly kernel for the operations its test compares."""

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @staticmethod
    def var(family, index, exp=1):
        return TuplePoly({((family, index, exp),): 1} if exp else {(): 1})

    def __add__(self, other):
        other = _tuple_coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return TuplePoly(out)

    __radd__ = __add__

    def __neg__(self):
        return TuplePoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_tuple_coerce(other))

    def __mul__(self, other):
        if isinstance(other, int):
            return TuplePoly({m: c * other for m, c in self.terms.items()})
        out = {}
        _tuple_add_product(out, self.terms, other.terms)
        return TuplePoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        result, base = TuplePoly({(): 1}), self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return isinstance(other, TuplePoly) and self.terms == other.terms

    def key(self):
        return tuple(sorted(self.terms.items()))

    def variables(self):
        out = {}
        for m in self.terms:
            for (f, i, e) in m:
                out[(f, i)] = max(e, out.get((f, i), 0))
        return out

    def part_of_family_degree(self, family, low, high=None):
        high = low if high is None else high
        return TuplePoly({m: c for m, c in self.terms.items()
                          if low <= sum(e for (f, _, e) in m if f == family) <= high})

    def collect(self, family):
        groups = {}
        for m, c in self.terms.items():
            inside = tuple(t for t in m if t[0] == family)
            groups.setdefault(inside, {})[tuple(t for t in m if t[0] != family)] = c
        return [(TuplePoly({m: 1}), TuplePoly(groups[m])) for m in sorted(groups)]

    def rename_family(self, src, dst):
        return TuplePoly({tuple(sorted((dst if f == src else f, i, e) for (f, i, e) in m)): c
                          for m, c in self.terms.items()})

    def truncate_family(self, family, max_index):
        return TuplePoly({m: c for m, c in self.terms.items()
                          if all(not (f == family and i > max_index) for (f, i, _) in m)})

    def substitute(self, images):
        out = TuplePoly()
        for m, c in self.terms.items():
            term = TuplePoly({(): c})
            for (f, i, e) in m:
                if (f, i) in images:
                    term = term * _tuple_coerce(images[(f, i)]) ** e
                else:
                    term = term * TuplePoly.var(f, i, e)
            out = out + term
        return out

    def substitute_family(self, family, image):
        return self.substitute({v: image(v[1]) for v in sorted(self.variables())
                                if v[0] == family})

    def evaluate(self, assign):
        return sum(c * math.prod(assign[(f, i)] ** e for (f, i, e) in m)
                   for m, c in self.terms.items())

    def __str__(self):
        if not self.terms:
            return "0"
        text = ""
        for m, c in sorted(self.terms.items()):
            factors = "*".join(f"{f}{i}" if e == 1 else f"{f}{i}^{e}" for (f, i, e) in m)
            body = str(abs(c)) if not factors else factors if abs(c) == 1 else f"{abs(c)}*{factors}"
            sign = "-" if c < 0 else "+"
            text = (("-" if c < 0 else "") + body) if not text else f"{text} {sign} {body}"
        return text

    def to_json(self):
        import json

        return json.dumps([{"mono": [list(t) for t in m], "coeff": str(c)}
                           for m, c in sorted(self.terms.items())],
                          sort_keys=True, separators=(",", ":"))


def _tuple_coerce(x):
    return x if isinstance(x, TuplePoly) else TuplePoly({(): x})


# -- reference command-line reader -----------------------------------------------
# The argparse parser `lambdaops.cli.parse_args` replaced, kept as it was, and
# the steps the old `main` took after it (defaults, then the --trunc/--window
# floor), without running the command.

class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as a ParseError instead of exiting 2."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _ArgumentParser(add_help=False)
    common.add_argument("--trunc", type=int, default=argparse.SUPPRESS,
                        help="generator truncation level N (default 5)")
    common.add_argument("--window", type=int, default=argparse.SUPPRESS,
                        help="integer window half-width W (default 16)")
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--model", default=argparse.SUPPRESS,
                        help="model selector (zz, sphere, cp:m, split:m, coi)")

    ap = _ArgumentParser(
        prog="lambdaops",
        description="Exact computations in the lambda-operation plethory",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("upoly", parents=[common], help="print a universal polynomial")
    p.add_argument("kind", choices=("pk", "pij", "plin", "psi"))
    p.add_argument("indices", type=int, nargs="+")
    p.set_defaults(fn=cmd_upoly)

    p = sub.add_parser("compose", parents=[common],
                       help="compose two operations of equal parity")
    p.add_argument("lhs")
    p.add_argument("rhs", nargs="?", default=None)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("act", parents=[common],
                       help="apply an even operation to a model element")
    p.add_argument("op")
    p.add_argument("element")
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser("loop", parents=[common],
                       help="loop an operation (swaps parity)")
    p.add_argument("op")
    p.set_defaults(fn=cmd_loop)

    p = sub.add_parser("coprod", parents=[common],
                       help="co-addition or co-multiplication")
    p.add_argument("kind", choices=("add", "mul"))
    p.add_argument("op")
    p.set_defaults(fn=cmd_coprod)

    p = sub.add_parser("check", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=("all", "biring", "compose", "looping", "models", "main"))
    p.set_defaults(fn=cmd_check)

    return ap


DEFAULTS = {"trunc": 5, "window": 16, "format": "text", "seed": 0, "model": "zz"}


def reference_parse_args(argv, parser=None):
    """What the old `main` made of argv before running the command: the
    namespace, or ParseError, or SystemExit(0) after printing the help.
    `parser` is a build_parser() to reuse."""
    args = (parser or build_parser()).parse_args(argv)
    for key, value in DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    for flag in ("trunc", "window"):
        if getattr(args, flag) < 1:
            raise ParseError(f"--{flag} must be at least 1")
    return args
