"""The Z/2-graded picture: odd exterior operations, the looping operator in
both directions, odd composition, the looping axioms and the main relations.

Only same-parity compositions are provided.  Mixed-parity components (an
even-length exterior monomial acting on odd classes, say) would need Bott
bookkeeping in the coefficients and are deliberately not part of the API.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from .errors import NotAugmented, NotReduced, TruncationExceeded
from .exterior import ExtElem
from .evenops import (
    EvenOp,
    comult_entry,
    compose_even,
    identity_op,
    op_cozero,
    op_is_primitive,
)
from .intpoly import IntPoly, Truncated
from .kbu import KBUElem, gen, psi_kbu
from .models import SplitModel, model_psi, poly_eval_in_model
from .report import Prop, axioms_report, relations_report
from .setzz import chi, const
from .symfun import left_linearise, newton_psi, product_alphabet

_PL_CACHE: dict[int, IntPoly] = {}
_ODD_GEN_CACHE: dict[tuple[int, int], ExtElem] = {}


def loop_polynomial(k: int) -> IntPoly:
    """P^L_k(1, -1, ..., (-1)^(k-1); L_1..L_k) = (-1)^(k-1) psi_k: the left-linear
    part of P_k is x_k psi_k(y), the last term of Newton's identity."""
    cached = _PL_CACHE.get(k)
    if cached is None:
        cached = _PL_CACHE[k] = (-1) ** (k - 1) * newton_psi(k)
    return cached


class OddOp(Truncated, value="ext", level="trunc"):
    """Element of the integer exterior algebra on l_1..l_N plus a unit part."""

    __slots__ = ("ext", "trunc")

    def __init__(self, ext: ExtElem, trunc: int):
        self.ext = ext.truncate(trunc)
        self.trunc = trunc

    def _rebuild(self, ext: ExtElem) -> "OddOp":
        return OddOp(ext, self.trunc)

    @property
    def is_zero(self):
        return self.ext.is_zero

    def unit_part(self) -> int:
        return self.ext.unit_part()

    def generator_coefficients(self) -> dict[int, int]:
        return self.ext.linear_coefficients()

    def __str__(self):
        return self.ext.render("l")

    def to_obj(self):
        return {
            "trunc": self.trunc,
            "terms": [[list(m), c] for m, c in self.ext.sorted_terms()],
        }


def lgen(k: int, trunc: int) -> OddOp:
    """The odd generator l_k at level N (zero above the truncation)."""
    if k < 1:
        raise ValueError("generator index must be >= 1")
    return OddOp(ExtElem.generator(k), trunc)


# -- odd coalgebra (for primitivity checks) -----------------------------------
#
# The tensor square of the exterior algebra, with the Koszul sign, is the
# exterior algebra on two copies of the generators with the left copy ordered
# first: the key (0, k) stands for l_k (x) 1 and (1, k) for 1 (x) l_k.


def _on_leg(x: OddOp, leg: int) -> ExtElem:
    """x (x) 1 for leg 0, 1 (x) x for leg 1."""
    return x.ext.substitute(lambda i: ExtElem.generator((leg, i)))


def coadd_odd(x: OddOp) -> ExtElem:
    """Algebra-map co-addition with primitive generators l_k, on two legs."""
    return x.ext.substitute(
        lambda i: ExtElem.generator((0, i)) + ExtElem.generator((1, i))
    )


def odd_is_primitive(x: OddOp) -> bool:
    """Whether Delta(x) = x (x) 1 + 1 (x) x, less the double-counted unit part."""
    return coadd_odd(x) == _on_leg(x, 0) + _on_leg(x, 1) - x.unit_part()


# -- looping -------------------------------------------------------------------


def loop_even(r: EvenOp) -> OddOp:
    """Omega on the even part: f (x) L_k goes to f(0) l_k; constants and
    decomposables die.  Requires r in the augmentation ideal."""
    if op_cozero(r) != 0:
        raise NotAugmented("loop requires vanishing augmentation")
    linear = r.component(0).poly.linear_coefficients("L")
    return OddOp(ExtElem.linear(linear), r.trunc)


def loop_odd(x: OddOp, window: int) -> EvenOp:
    """Omega on the odd part: l_k goes to 1 (x) P^L_k(1, -1, ...; L's), which
    is (-1)^(k-1) psi_k; exterior monomials of length two or more go to zero."""
    if x.unit_part() != 0:
        raise NotAugmented("loop requires vanishing unit part")
    total = IntPoly.zero()
    for k, c in x.generator_coefficients().items():
        total = total + c * loop_polynomial(k)
    return EvenOp.from_pairs(
        [(const(1), KBUElem(total, x.trunc))], x.trunc, window
    )


def _odd_gen_compose(i: int, j: int, trunc: int) -> ExtElem:
    """l_i o l_j = (-1)^((i-1)(j-1)) l_{ij}, the generator-linear part of P_{i,j}:
    only l_i o l_j with i and j both even changes sign."""
    if i * j > trunc:
        raise TruncationExceeded(
            f"l{i} o l{j} needs index {i * j} above truncation {trunc}"
        )
    key = (i, j)
    cached = _ODD_GEN_CACHE.get(key)
    if cached is None:
        cached = _ODD_GEN_CACHE[key] = ExtElem.linear({i * j: -1 if i % 2 == j % 2 == 0 else 1})
    return cached


def compose_odd(x: OddOp, y: OddOp) -> OddOp:
    """Odd composition: l_i o l_j = (-1)^((i-1)(j-1)) l_{ij} on generators, the
    left argument extended as an algebra map, and Z-bilinearity in the right over
    primitive combinations (on suspension classes every operation is
    additive, so integer right multiples come out linearly)."""
    if y.unit_part() != 0:
        raise NotReduced("right operand must have zero unit part")
    y_coeffs = y.generator_coefficients()
    if y.ext != ExtElem.linear(y_coeffs):
        raise NotReduced(
            "right operand must be a combination of generators; "
            "composition against decomposable odd classes is mixed-parity"
        )
    if x.trunc != y.trunc:
        raise ValueError("truncation levels differ")

    def gen_image(i: int) -> ExtElem:
        out = ExtElem()
        for j, c in y_coeffs.items():
            out = out + c * _odd_gen_compose(i, j, x.trunc)
        return out

    return OddOp(x.ext.substitute(gen_image), x.trunc)


# -- graded wrapper -------------------------------------------------------------


class GradedOp:
    """A Z/2-graded operation: an even part and an odd part with shared
    truncation; the bidegrees are (0, 0) and (-1, -1) respectively."""

    __slots__ = ("even", "odd")

    def __init__(self, even: EvenOp, odd: OddOp):
        if even.trunc != odd.trunc:
            raise ValueError("parts carry different truncation levels")
        self.even = even
        self.odd = odd

    @staticmethod
    def identity(parity: int, trunc: int, window: int) -> "GradedOp":
        """iota_0 (even identity) or iota_1 (l^1) inside the Z/2 grading."""
        zero_even = EvenOp({}, trunc, window)
        zero_odd = OddOp(ExtElem(), trunc)
        if parity % 2 == 0:
            return GradedOp(identity_op(trunc, window), zero_odd)
        return GradedOp(zero_even, lgen(1, trunc))

    def loop(self, window: int) -> "GradedOp":
        """Omega swaps the parities: the even part loops to odd and vice versa."""
        new_odd = loop_even(self.even)  # an unaugmented even part is reported first
        return GradedOp(loop_odd(self.odd, window), new_odd)

    def __eq__(self, other):
        return isinstance(other, GradedOp) and self.even == other.even and self.odd == other.odd


# -- augmentation ideal, primitives, indecomposables ----------------------------


class AugmentationView(NamedTuple):
    """Membership/structure view of one parity at a fixed (trunc, window)."""

    part: str
    trunc: int
    window: int
    primitives: list
    indecomposables: list
    in_ip: Callable
    is_primitive: Callable


def augmentation_view(part: str, trunc: int, window: int) -> AugmentationView:
    """Primitive basis and indecomposable representatives up to truncation.

    Even part: the Newton elements 1 (x) psi_k are the verified primitives and
    the generator classes 1 (x) L_k represent the indecomposables.  Odd part:
    the l_k are both."""
    if part == "even":
        prims = []
        for k in range(1, trunc + 1):
            cand = EvenOp.from_pairs(
                [(const(1), psi_kbu(k, trunc))], trunc, window
            )
            if not op_is_primitive(cand):
                raise AssertionError(f"Newton element psi_{k} failed primitivity")
            prims.append(cand)
        indec = [
            EvenOp.from_pairs([(const(1), gen(k, trunc))], trunc, window)
            for k in range(1, trunc + 1)
        ]
        return AugmentationView(
            part="even",
            trunc=trunc,
            window=window,
            primitives=prims,
            indecomposables=indec,
            in_ip=lambda r: op_cozero(r) == 0,
            is_primitive=op_is_primitive,
        )
    if part == "odd":
        prims = [lgen(k, trunc) for k in range(1, trunc + 1)]
        for p in prims:
            if not odd_is_primitive(p):
                raise AssertionError("odd generator failed primitivity")
        return AugmentationView(
            part="odd",
            trunc=trunc,
            window=window,
            primitives=prims,
            indecomposables=list(prims),
            in_ip=lambda x: x.unit_part() == 0,
            is_primitive=odd_is_primitive,
        )
    raise ValueError("part must be 'even' or 'odd'")


# -- axiom suites ----------------------------------------------------------------


def _even_generator_corpus(trunc: int, window: int) -> list[EvenOp]:
    out = []
    for k in range(1, trunc + 1):
        for f in (chi(0), chi(1), chi(-1), chi(2), const(1)):
            out.append(EvenOp.from_pairs([(f, gen(k, trunc))], trunc, window))
    return out


def check_looping_axioms(trunc: int, window: int,
                         rng: random.Random | None = None) -> dict:
    """Verify the looping axioms on the generator corpus; returns a report
    with one entry per axiom carrying instance counts and witnesses."""
    rng = rng or random.Random(11)
    corpus = _even_generator_corpus(trunc, window)

    # (1) Omega vanishes on squares of the augmentation ideal and lands in
    # primitives, in both directions.
    first = Prop("1")
    for _ in range(30):
        r = rng.choice(corpus)
        s = rng.choice(corpus)
        first.check(loop_even(r * s).is_zero, lambda: f"loop of product {r} * {s} nonzero")
    for r in corpus:
        first.check(odd_is_primitive(loop_even(r)), lambda: f"loop image of {r} not primitive")
    for k in range(1, trunc + 1):
        first.check(op_is_primitive(loop_odd(lgen(k, trunc), window)),
                    lambda: f"loop image of l{k} not primitive")

    # (2) The comultiplication of a looped operation, through the action
    # oracle on a suspension-extended split model.  Both operation bidegrees
    # are (0, 0), so the sign and antipode twists in the general statement
    # are trivial here.  Pairs whose augmentation leaves the window are
    # skipped: the comultiplication entry there is not represented.
    second = Prop("2")
    model = SplitModel(2)
    srng = random.Random(23)
    alphas = model.samples(srng, 4)
    betas = model.samples(srng, 4)
    # (eps(alpha), alpha, beta - eps(beta), alpha * (beta - eps(beta))) per
    # pair whose augmentation stays in the window, from the point records
    pairs = []
    for alpha, beta in zip(alphas, betas):
        ea, beta_red = model.point(alpha).eps, model.point(beta).reduced
        if abs(ea) <= window:
            pairs.append((ea, alpha, beta_red, model.mul(alpha, beta_red)))
    for k in range(1, trunc + 1):
        for f in (chi(0), chi(1), chi(-1), const(1)):
            r = EvenOp.from_pairs([(f, gen(k, trunc))], trunc, window)
            for ea, alpha, beta_red, q in pairs:
                lhs = _suspension_eval(r, model, q)
                # the suspension pairs only against the entry (eps(alpha), 0)
                entry = comult_entry(r, ea, 0)
                rhs = _pair_suspension_eval(entry, model, alpha, beta_red)
                # the witness numbers the pair by the instances counted so far
                second.check(model.eq(lhs, rhs),
                             lambda: f"axiom 2 at k={k}, f={f}, pair {second.instances}")

    # (3) Omega is multiplicative under composition, both parities.
    third = Prop("3")
    fns = [chi(0), chi(1), chi(-1), const(1)]

    def operand(f, k):  # f (x) L_k and its loop, built once per (f, k)
        op = EvenOp.from_pairs([(f, gen(k, trunc))], trunc, window)
        return op, loop_even(op)

    ops = [(f, {k: operand(f, k) for k in range(1, trunc + 1)}) for f in fns]
    for i in range(1, trunc + 1):
        for j in range(1, trunc + 1):
            if i * j > trunc:
                continue
            for f, f_ops in ops:
                for g, g_ops in ops:
                    (r, loop_r), (s, loop_s) = f_ops[i], g_ops[j]
                    lhs = loop_even(compose_even(r, s))
                    rhs = compose_odd(loop_r, loop_s)
                    third.check(lhs == rhs, lambda: f"even axiom 3 at ({f}(x)L{i}, {g}(x)L{j})")
            lhs = loop_odd(compose_odd(lgen(i, trunc), lgen(j, trunc)), window)
            rhs = compose_even(
                loop_odd(lgen(i, trunc), window), loop_odd(lgen(j, trunc), window)
            )
            third.check(lhs == rhs, lambda: f"odd axiom 3 at (l{i}, l{j})")

    # (4) Looping the identity: the even identity loops to l1, and l1 loops
    # back to the linear part of the even identity.
    fourth = Prop("4")
    ident = identity_op(trunc, window)
    fourth.check(loop_even(ident) == lgen(1, trunc),
                 lambda: "loop of the even identity is not l1")
    linear_part = EvenOp.from_pairs([(const(1), gen(1, trunc))], trunc, window)
    fourth.check(loop_odd(lgen(1, trunc), window) == linear_part,
                 lambda: "loop of l1 is not the linear part of the identity")

    return axioms_report({"trunc": trunc, "window": window}, [first, second, third, fourth])


def _suspension_eval(r: EvenOp, model: SplitModel, q):
    """u-coefficient of r applied to u*q in the model extended by u^2 = 0,
    computed by honest polynomial arithmetic with lambda^k(u q) expanded as
    (-1)^(k-1) u psi^k(q)."""
    u = IntPoly.var("u", 1)
    value = r.component(0).poly.substitute_family(
        "L", lambda k: u * ((-1) ** (k - 1)) * model.psi(k, q)
    )
    # truncate u^2 = 0 and read off the u-linear coefficient
    return dict(value.collect("u")).get(u, IntPoly.zero())


def _pair_suspension_eval(poly: IntPoly, model: SplitModel, alpha, beta_red):
    """One comultiplication entry paired against (alpha, u*beta): the left leg
    acts on alpha, the right leg loops and acts on beta through suspension."""
    alpha_red = model.point(alpha).reduced
    total = model.from_int(0)
    for right, left in poly.collect("T2"):
        # the right leg must be generator-linear to survive looping
        for k in right.linear_coefficients("T2"):
            signed_psi = model.mul(
                model.from_int((-1) ** (k - 1)), model_psi(model, k, beta_red)
            )
            left_val = poly_eval_in_model(left, model, {"T1": alpha_red})
            total = model.add(total, model.mul(left_val, signed_psi))
    return total


def main_relations_check(p_max: int, trunc: int, window: int) -> dict:
    """The two defining relations of the main quotient: looping an even
    operation forgets the function leg through evaluation at zero, and the
    double loop is the alternating left-linearised polynomial, built here from
    P_p in (x; L) at the sphere values x_i = (-1)^(i-1), apart from the closed
    form (-1)^(p-1) psi_p that loop_odd reads."""
    if p_max > trunc:
        raise ValueError("p_max must not exceed the truncation level")
    fns = [(f"chi({d})", chi(d)) for d in range(-window, window + 1)]
    fns.append(("const(1)", const(1)))
    relations = []
    for p in range(1, p_max + 1):
        sphere = {("x", i): IntPoly.const((-1) ** (i - 1)) for i in range(1, p + 1)}
        plin = left_linearise(product_alphabet(p, ("x", "L"))).substitute(sphere)
        base = EvenOp.from_pairs([(const(1), gen(p, trunc))], trunc, window)
        loop_base = loop_even(base)
        prop = Prop(p)
        for fname, f in fns:
            r = EvenOp.from_pairs([(f, gen(p, trunc))], trunc, window)
            f0 = f.ev(0)
            prop.check(loop_even(r) == f0 * loop_base,
                       lambda: f"first relation at p={p}, f={fname}")
            expected = EvenOp.from_pairs(
                [(const(f0), KBUElem(plin, trunc))], trunc, window
            )
            prop.check(loop_odd(loop_even(r), window) == expected,
                       lambda: f"second relation at p={p}, f={fname}")
        relations.append(prop)
    return relations_report({"trunc": trunc, "window": window, "p_max": p_max}, relations)
