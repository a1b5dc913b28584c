"""Property suites behind `check`: each returns a `report.suite_report`."""

from __future__ import annotations

import itertools
import random
from functools import partial

from .evenops import (
    EvenOp,
    act,
    act_pair,
    coadd_entry,
    comult_entry,
    compose_even,
    identity_op,
    op_counit,
)
from .intpoly import IntPoly
from .kbu import (
    KBUElem,
    antipode,
    coadd,
    coadd_image,
    coadd_multi,
    colinear,
    comult_image,
    compose_kbu,
    cozero,
    gen,
    sigma_gen,
)
from .loopgrade import check_looping_axioms, main_relations_check
from .models import (
    bun_restrict,
    lambdak_from_beta,
    lk_from_mu,
    register_models,
    un_restrict,
    validate_model,
)
from .errors import RegistrationFailure
from .report import SKIP, Prop, all_report, suite_report
from .setzz import chi, const, IDENT
from .symfun import lambda_of_integer, product_alphabet


def _monomial_corpus(trunc: int) -> list[KBUElem]:
    """All generator monomials with index sum (weight) at most the truncation."""
    out = []

    def build(max_part, remaining, parts):
        if parts:
            mono = IntPoly.one()
            for p in parts:
                mono = mono * IntPoly.var("L", p)
            out.append(KBUElem(mono, trunc))
        for p in range(min(max_part, remaining), 0, -1):
            build(p, remaining - p, parts + [p])

    build(trunc, trunc, [])
    return out


def _coassociativity_routes(x: KBUElem, image, trunc: int) -> tuple[IntPoly, IntPoly]:
    """(Delta (x) 1) Delta x and (1 (x) Delta) Delta x for the coproduct with
    generator images image(k, left, right), in the legs T1, T2, T3."""
    via_first = x.poly.substitute_family("L", lambda k: image(k, "M", "T3"))
    route1 = via_first.substitute_family("M", lambda k: image(k, "T1", "T2"))
    via_second = x.poly.substitute_family("L", lambda k: image(k, "T1", "M"))
    route2 = via_second.substitute_family("M", lambda k: image(k, "T2", "T3"))
    for leg in ("T1", "T2", "T3"):
        route1 = route1.truncate_family(leg, trunc)
        route2 = route2.truncate_family(leg, trunc)
    return route1, route2


def _comult3_image(k: int) -> IntPoly:
    """L_k under the iterated co-multiplication: the product alphabet of T1, T2, T3."""
    return product_alphabet(k, ("T1", "T2", "T3"))


def biring_suite(trunc: int, seed: int = 0) -> dict:
    rng = random.Random(seed)
    corpus = _monomial_corpus(trunc)

    # coassociativity of both coproducts by three routes: the two iterations
    # and the three-leg coproduct built from its own generator images
    coassociative = []
    route3 = {"coadd": lambda x: coadd_multi(x, 3),
              "comult": lambda x: x.poly.substitute_family("L", _comult3_image)}
    for name, image in (("coadd", coadd_image), ("comult", comult_image)):
        prop = Prop(f"{name}-coassociative")
        for x in corpus:
            route1, route2 = _coassociativity_routes(x, image, trunc)
            prop.check(route1 == route2 == route3[name](x),
                       lambda: f"{name} coassociativity at {x}")
        coassociative.append(prop)

    # Hopf antipode law and involution
    law = Prop("antipode-law")
    sigma_images = {("T1", k): sigma_gen(k) for k in range(1, trunc + 1)}
    ident_images = {("T2", k): IntPoly.var("L", k) for k in range(1, trunc + 1)}
    for x in corpus + [corpus[0] + 3 * corpus[-1]]:
        merged = coadd(x).poly.substitute(sigma_images | ident_images)
        law.check(KBUElem(merged, trunc) == KBUElem.from_int(cozero(x), trunc),
                  lambda: f"antipode law at {x}")
        law.check(antipode(antipode(x)) == x, lambda: f"antipode involution at {x}")

    # co-linear structure: multiplicativity, and gamma(-1) inverts 1 + sum L_k t^k
    colinearity = Prop("colinear-structure")
    for k1 in range(-3, 4):
        for k2 in range(-3, 4):
            for k in range(1, trunc + 1):
                lhs = colinear(k1, colinear(k2, gen(k, trunc)))
                rhs = colinear(k1 * k2, gen(k, trunc))
                colinearity.check(lhs == rhs,
                                  lambda: f"gamma({k1})gamma({k2}) != gamma({k1 * k2}) on L{k}")
    for k in range(1, trunc + 1):
        convolution = gen(k, trunc) + colinear(-1, gen(k, trunc))
        for i in range(1, k):
            convolution = convolution + gen(i, trunc) * colinear(-1, gen(k - i, trunc))
        colinearity.check(convolution.is_zero, lambda: f"gamma(-1) != antipode on L{k}")

    # composition: unit laws and associativity inside the exact regime
    monoid = Prop("compose-monoid")
    for x in rng.sample(corpus, min(6, len(corpus))):
        reduced = x.reduced()
        monoid.check(compose_kbu(gen(1, trunc), reduced) == reduced, lambda: f"left unit at {x}")
        monoid.check(compose_kbu(x, gen(1, trunc)) == x, lambda: f"right unit at {x}")
    for i, j, k in itertools.product(range(1, trunc + 1), repeat=3):
        if i * j * k > trunc:
            continue
        lhs = compose_kbu(compose_kbu(gen(i, trunc), gen(j, trunc)), gen(k, trunc))
        rhs = compose_kbu(gen(i, trunc), compose_kbu(gen(j, trunc), gen(k, trunc)))
        monoid.check(lhs == rhs, lambda: f"associativity at ({i},{j},{k})")

    return suite_report("biring", {"trunc": trunc, "seed": seed},
                        [*coassociative, law, colinearity, monoid])


def _operation_corpus(trunc: int, window: int, rng: random.Random,
                      size: int) -> list[EvenOp]:
    """Random operations whose composites stay representable: ring weights are
    capped at the square root of the truncation, so that a composite's weight
    (at most the product of two) stays inside it, and the unbounded function
    Id is only paired with constant-free ring elements so that component
    augmentations stay inside the window."""
    fns = [chi(0), chi(1), chi(-1), chi(2), chi(-2), chi(3), const(1), const(-1), const(2)]
    xs = [
        gen(1, trunc),
        gen(2, trunc),
        gen(1, trunc) + 1,
        gen(2, trunc) - gen(1, trunc),
        2 * gen(1, trunc),
        gen(1, trunc) * gen(1, trunc),
        gen(2, trunc) + 3,
        KBUElem.from_int(1, trunc),
    ]
    xs = [x for x in xs if x.weight() ** 2 <= trunc]
    xs_reduced = [x.reduced() for x in xs if not x.reduced().is_zero]
    out = []
    for _ in range(size):
        pairs = []
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.15:
                pairs.append((IDENT, rng.choice(xs_reduced)))
            else:
                pairs.append((rng.choice(fns), rng.choice(xs)))
        out.append(EvenOp.from_pairs(pairs, trunc, window))
    return out


def compose_suite(trunc: int, window: int, seed: int = 0) -> dict:
    """Composition versus the action oracle, plus the monoid laws.

    Corpus ring weights are capped so every composite stays inside the
    truncation level (the quotient only respects composition there).
    """
    rng = random.Random(seed)
    models = register_models(validate=False)
    sample_rng = random.Random(seed + 1)
    elements = {name: m.samples(sample_rng, 5) for name, m in models.items()}

    corpus = _operation_corpus(trunc, window, rng, 30)
    oracle = Prop("compose-vs-action")
    for _ in range(40):
        r, s = rng.choice(corpus), rng.choice(corpus)
        with SKIP:
            comp = compose_even(r, s)
            for name, m in models.items():
                for a in elements[name]:
                    with SKIP:
                        oracle.check(m.eq(act(comp, m, a), act(r, m, act(s, m, a))),
                                     lambda: f"oracle mismatch on {name} at {m.show(a)}")

    laws = Prop("compose-monoid-laws")
    ident = identity_op(trunc, window)
    for r in corpus:
        with SKIP:
            left, right = compose_even(ident, r), compose_even(r, ident)
            laws.check(left == r, lambda: f"left unit at {r}")
            laws.check(right == r, lambda: f"right unit at {r}")
    assoc_trunc = max(trunc, 8)
    assoc_corpus = _operation_corpus(assoc_trunc, window, rng, 30)
    for _ in range(25):
        r, s, t = (rng.choice(assoc_corpus) for _ in range(3))
        with SKIP:
            lhs = compose_even(compose_even(r, s), t)
            rhs = compose_even(r, compose_even(s, t))
            laws.check(lhs == rhs, lambda: f"associativity at ({r}) o ({s}) o ({t})")

    # counit multiplicativity through the integer model, where defined
    counit = Prop("counit-composition")
    zz = models["zz"]
    for _ in range(20):
        r, s = rng.choice(corpus), rng.choice(corpus)
        with SKIP:  # skips when s's counit, its augmentation at 1, leaves the window
            counit.check(op_counit(compose_even(r, s)) == act(r, zz, act(s, zz, 1)),
                         lambda: f"counit of composition at ({r}) o ({s})")

    # coproducts against the action on sums and products; the comparison is
    # only meaningful while both augmentations and their combination stay
    # inside the window
    coproducts = Prop("coproducts-vs-action")
    for name in ("zz", "sphere", "split:2"):
        m = models[name]
        es = elements[name]
        for r in rng.sample(corpus, 6):
            coadd_r, comult_r = partial(coadd_entry, r), partial(comult_entry, r)
            for a, b in zip(es, es[1:]):
                ea, eb = m.eps(a), m.eps(b)
                if abs(ea) > window or abs(eb) > window:
                    continue
                if abs(ea + eb) <= window:
                    coproducts.check(m.eq(act_pair(coadd_r, m, a, b, r.window),
                                          act(r, m, m.add(a, b))),
                                     lambda: f"coadd action at {name}")
                if abs(ea * eb) <= window:
                    coproducts.check(m.eq(act_pair(comult_r, m, a, b, r.window),
                                          act(r, m, m.mul(a, b))),
                                     lambda: f"comult action at {name}")

    return suite_report("compose", {"trunc": trunc, "window": window, "seed": seed},
                        [oracle, laws, counit, coproducts])


def models_suite(trunc: int, seed: int = 0) -> dict:
    rng = random.Random(seed)

    axioms = Prop("lambda-ring-axioms")
    models = register_models(validate=False)
    for model in models.values():
        try:
            validate_model(model, max_k=min(4, trunc), rng=rng)
            error = None
        except RegistrationFailure as exc:
            error = str(exc)
        axioms.check(error is None, lambda: error)

    suspension = Prop("sphere-suspension-fact")
    sphere = models["sphere"]
    u = IntPoly.var("u", 1)
    for i in range(1, 6):
        suspension.check(sphere.lam(i, u) == (-1) ** (i - 1) * u, lambda: f"sphere lambda^{i}(u)")

    restriction = Prop("restriction-identities")
    for n in range(2, 7):
        for k in range(1, n):
            restriction.check(un_restrict(lk_from_mu(n, k)) == lk_from_mu(n - 1, k),
                              lambda: f"unitary restriction at (n={n}, k={k})")
    for n in range(1, 7):
        for k in range(1, n + 1):
            restriction.check(bun_restrict(lambdak_from_beta(n + 1, k)) == lambdak_from_beta(n, k),
                              lambda: f"classifying restriction at (n={n}, k={k})")

    pascal = Prop("negative-pascal")
    for n in range(1, 8):
        for i in range(1, 8):
            lhs = lambda_of_integer(-n, i) + lambda_of_integer(-n, i - 1)
            pascal.check(lhs == lambda_of_integer(-n + 1, i), lambda: f"Pascal at (-{n}, {i})")

    return suite_report("models", {"trunc": trunc, "seed": seed},
                        [axioms, suspension, restriction, pascal])


def looping_suite(trunc: int, window: int, seed: int = 0) -> dict:
    rep = check_looping_axioms(trunc, window, random.Random(seed))
    props = [Prop.from_entry(f"axiom-{aid}", entry)
             for aid, entry in sorted(rep["axioms"].items())]
    return suite_report("looping", {"trunc": trunc, "window": window, "seed": seed}, props)


def main_suite(trunc: int, window: int, seed: int = 0) -> dict:
    rep = main_relations_check(min(trunc, 5), trunc, window)
    props = [Prop.from_entry(f"relations-p{entry['p']}", entry) for entry in rep["relations"]]
    return suite_report("main", {"trunc": trunc, "window": window, "seed": seed}, props)


SUITES = {
    "biring": lambda trunc, window, seed: biring_suite(trunc, seed),
    "compose": compose_suite,
    "looping": looping_suite,
    "models": lambda trunc, window, seed: models_suite(trunc, seed),
    "main": main_suite,
}


def run_suite(name: str, trunc: int, window: int, seed: int = 0) -> dict:
    if name == "all":
        return all_report({"trunc": trunc, "window": window, "seed": seed},
                          [run_suite(n, trunc, window, seed) for n in SUITES])
    return SUITES[name](trunc, window, seed)
