"""The truncated power-series biring on the lambda-operation generators.

Elements are polynomials in L1..LN (family "L"); the quotient sets every
generator of index above the truncation level N to zero.  All structure
maps extend multiplicatively from their values on generators, and internal
composition is computed exactly before the final truncation, so algebraic
laws hold on the nose whenever the weights involved stay within N and hold
modulo the filtration ideal otherwise.
"""

from __future__ import annotations

from functools import cache

from .errors import NotReduced
from .intpoly import IntPoly, Truncated
from .symfun import _adams_lambda, _newton_step, lambda_of_multiple, newton_psi, universal_pk

_SIGMA_CACHE: dict[int, IntPoly] = {}
_GAMMA_CACHE: dict[tuple[int, int], IntPoly] = {}
_COMPOSE_CACHE: dict[tuple[int, tuple], IntPoly] = {}


class KBUElem(Truncated, value="poly", level="trunc"):
    """A truncated element: polynomial in L1..LN plus the level N."""

    __slots__ = ("poly", "trunc")

    def __init__(self, poly: IntPoly, trunc: int):
        if trunc < 1:
            raise ValueError("truncation level must be >= 1")
        self.poly = poly.truncate_family("L", trunc)
        self.trunc = trunc

    def _rebuild(self, poly: IntPoly) -> "KBUElem":
        return KBUElem(poly, self.trunc)

    @staticmethod
    def from_int(c: int, trunc: int) -> "KBUElem":
        return KBUElem(IntPoly.const(c), trunc)

    def __hash__(self):
        return hash((self.trunc, self.poly))

    @property
    def is_zero(self):
        return self.poly.is_zero

    def weight(self) -> int:
        return self.poly.weight("L")

    def reduced(self) -> "KBUElem":
        """Subtract the constant term (projection to the augmentation ideal)."""
        return KBUElem(self.poly - IntPoly.const(self.poly.constant_term()), self.trunc)


def gen(k: int, trunc: int) -> KBUElem:
    """The generator L_k at level N (zero when k exceeds N)."""
    if k < 1:
        raise ValueError("generator index must be >= 1")
    return KBUElem(IntPoly.var("L", k) if k <= trunc else IntPoly.zero(), trunc)


def cozero(x: KBUElem) -> int:
    """eps+: kill every generator, leaving the constant term."""
    return x.poly.constant_term()


# -- tensors ----------------------------------------------------------------


class TensorKBU:
    """Two-leg tensor over the truncated ring, stored as a polynomial in the
    leg families "T1" and "T2" and normalised by grouping on left monomials.
    """

    __slots__ = ("poly", "trunc")

    def __init__(self, poly: IntPoly, trunc: int):
        poly = poly.truncate_family("T1", trunc).truncate_family("T2", trunc)
        self.poly = poly
        self.trunc = trunc

    def __eq__(self, other):
        return (
            isinstance(other, TensorKBU)
            and self.trunc == other.trunc
            and self.poly == other.poly
        )

    def __add__(self, other):
        return TensorKBU(self.poly + other.poly, self.trunc)

    def pairs(self) -> list[tuple[IntPoly, IntPoly]]:
        """Sumless-Sweedler view: (left monomial, right polynomial) pairs in
        the generators L, with distinct left factors, sorted canonically."""
        return [(left.rename_family("T1", "L"), right.rename_family("T2", "L"))
                for left, right in self.poly.collect("T1")]

    def __str__(self):
        legs = IntPoly.to_text_all([leg for pair in self.pairs() for leg in pair])
        return " + ".join([f"({left})(x)({right})"
                           for left, right in zip(legs[::2], legs[1::2])]) or "0"


def tensor_of(left: KBUElem, right: KBUElem) -> TensorKBU:
    poly = left.poly.rename_family("L", "T1") * right.poly.rename_family("L", "T2")
    return TensorKBU(poly, left.trunc)


def coadd_image(k: int, left: str = "T1", right: str = "T2") -> IntPoly:
    """Image of L_k under co-addition: sum over i+j=k of left_i * right_j."""
    out = IntPoly.var(left, k) + IntPoly.var(right, k)
    for i in range(1, k):
        out = out + IntPoly.var(left, i) * IntPoly.var(right, k - i)
    return out


@cache
def comult_image(k: int, left: str = "T1", right: str = "T2") -> IntPoly:
    """Image of L_k under co-multiplication: P_k(left_i ; right_j)."""
    return universal_pk(k).rename_family("x", left).rename_family("y", right)


def coadd(x: KBUElem) -> TensorKBU:
    """Co-addition, a ring map with Delta+(L_k) = sum_{i+j=k} L_i (x) L_j."""
    return TensorKBU(x.poly.substitute_family("L", coadd_image), x.trunc)


def comult(x: KBUElem) -> TensorKBU:
    """Co-multiplication, a ring map with Delta-x(L_k) = P_k(L (x) 1; 1 (x) L)."""
    return TensorKBU(x.poly.substitute_family("L", comult_image), x.trunc)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def coadd_multi(x: KBUElem, legs: int) -> IntPoly:
    """Iterated co-addition into `legs` tensor legs (families T1..Tlegs);
    by coassociativity L_k maps to the sum over compositions k1+...+km=k.
    """

    def image(k: int) -> IntPoly:
        out = IntPoly.zero()
        for comp in _compositions(k, legs):
            term = IntPoly.one()
            for leg, kt in enumerate(comp, start=1):
                if kt:
                    term = term * IntPoly.var(f"T{leg}", kt)
            out = out + term
        return out

    poly = x.poly.substitute_family("L", image)
    for leg in range(1, legs + 1):
        poly = poly.truncate_family(f"T{leg}", x.trunc)
    return poly


def sigma_gen(k: int) -> IntPoly:
    """Antipode of L_k: gamma(-1)(L_k), the t^k coefficient of (1 + sum_i L_i t^i)^-1."""
    if k == 0:
        return IntPoly.one()
    cached = _SIGMA_CACHE.get(k)
    if cached is None:
        cached = _SIGMA_CACHE[k] = gamma_gen(-1, k)
    return cached


def antipode(x: KBUElem) -> KBUElem:
    """Co-additive inverse, the ring map colinear(-1, x) on the generators."""
    return KBUElem(x.poly.substitute_family("L", sigma_gen), x.trunc)


def gamma_gen(kappa: int, k: int) -> IntPoly:
    """gamma(kappa)(L_k) = lambda^k(kappa * b), one term per partition of k."""
    key = (kappa, k)
    cached = _GAMMA_CACHE.get(key)
    if cached is None:
        cached = _GAMMA_CACHE[key] = lambda_of_multiple(kappa, k)
    return cached


def colinear(kappa: int, x: KBUElem) -> KBUElem:
    """Co-linear structure: precomposition with multiplication by kappa."""
    return KBUElem(x.poly.substitute_family("L", lambda k: gamma_gen(kappa, k)), x.trunc)


# -- internal composition -----------------------------------------------------


@cache
def _adams_image(n: int, ypoly: IntPoly) -> IntPoly:
    """psi^n(y), the ring map sending each L_j to psi^n(L_j)."""
    return ypoly.substitute_family("L", lambda j: _adams_lambda(n, j))


def _gen_compose(g: int, ypoly: IntPoly) -> IntPoly:
    """L_g composed with a reduced polynomial y, computed exactly.

    With L_j = lambda^j(b) in the free lambda-ring on one generator b, L_g o y
    is lambda^g(y): one Newton step on L_1 o y..L_{g-1} o y whose power sums
    are the Adams images psi^n(y); L_g o 0 is 0 (a generator's augmentation).
    """
    if ypoly.is_zero:
        return IntPoly.zero()
    key = (g, ypoly.key())
    cached = _COMPOSE_CACHE.get(key)
    if cached is None:
        cached = _COMPOSE_CACHE[key] = _newton_step(
            g, lambda t: _gen_compose(t, ypoly), lambda n: _adams_image(n, ypoly))
    return cached


def _poly_compose(xpoly: IntPoly, ypoly: IntPoly) -> IntPoly:
    """Ring-map extension in the left slot: substitute L_g -> L_g o y."""
    return xpoly.substitute_family("L", lambda g: _gen_compose(g, ypoly))


def compose_kbu(x: KBUElem, y: KBUElem) -> KBUElem:
    """Internal composition x o y for y in the augmentation ideal.

    The left argument extends as a ring map, and L_g o y is lambda^g(y),
    one Newton step over the Adams images psi^n(y).  Computed exactly, then
    truncated at N.
    """
    if cozero(y) != 0:
        raise NotReduced("right operand must have zero constant term")
    if x.trunc != y.trunc:
        raise ValueError("truncation levels differ")
    return KBUElem(_poly_compose(x.poly, y.poly), x.trunc)


def is_primitive(x: KBUElem) -> bool:
    """Whether Delta+(x) = x (x) 1 + 1 (x) x at the current truncation."""
    one = KBUElem.from_int(1, x.trunc)
    expected = tensor_of(x, one).poly + tensor_of(one, x).poly
    # the double-counted constant term of x (x) 1 + 1 (x) x
    expected = expected - IntPoly.const(cozero(x))
    return coadd(x).poly == expected


def psi_kbu(k: int, trunc: int) -> KBUElem:
    """The k-th Adams element: Newton power sum in the generators."""
    return KBUElem(newton_psi(k), trunc)
