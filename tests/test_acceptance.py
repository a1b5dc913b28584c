"""Acceptance criteria, one test per criterion, exact integer arithmetic
throughout (tolerance zero).  Each test prints a single PASS line; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""

import itertools
import json
import os.path as osp
import random
import time

from helpers import esym, from_obj, grid_products, un_one
from lambdaops.checks import _monomial_corpus
from lambdaops.errors import InvalidFamily
from lambdaops.evenops import EvenOp, act, compose_even, identity_op
from lambdaops.intpoly import IntPoly
from lambdaops.kbu import (
    KBUElem,
    antipode,
    coadd_image,
    colinear,
    comult_image,
    compose_kbu,
    gen,
    psi_kbu,
    sigma_gen,
)
from lambdaops.loopgrade import (
    check_looping_axioms,
    lgen,
    loop_odd,
    main_relations_check,
)
from lambdaops.models import (
    ProjectiveModel,
    SplitModel,
    bun_restrict,
    lambdak_from_beta,
    lk_from_mu,
    register_models,
    un_mu,
    un_restrict,
)
from lambdaops.setzz import COIFamily, IntegerRing, ModRing, coi_add, coi_mul
from lambdaops.symfun import left_linearise, universal_pij, universal_pk
from lambdaops.setzz import chi, const

GOLDEN = osp.join(osp.dirname(osp.abspath(__file__)), "golden")


def _report(num, label, t0, budget=None):
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE {num}: PASS - {label} [{elapsed:.1f}s]")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_01_universal_polynomial_oracle():
    t0 = time.time()
    split = SplitModel(2)
    rng = random.Random(101)
    samples = split.samples(rng, 100)
    # P_k against lambda of products, 50 pairs, k <= 5
    for t in range(50):
        a, b = samples[2 * t], samples[2 * t + 1]
        for k in range(1, 6):
            assign = {("x", i): split.lam(i, a) for i in range(1, k + 1)}
            assign |= {("y", j): split.lam(j, b) for j in range(1, k + 1)}
            lhs = split.lam(k, split.mul(a, b))
            rhs = universal_pk(k).evaluate(assign, split)
            assert split.eq(lhs, rhs), (k, str(a), str(b))
    # P_{i,j} against iterated lambda, all i*j <= 8
    pairs = [(i, j) for i in range(1, 9) for j in range(1, 9) if i * j <= 8]
    for i, j in pairs:
        for a in samples[:6]:
            assign = {("L", m): split.lam(m, a) for m in range(1, i * j + 1)}
            lhs = split.lam(i, split.lam(j, a))
            rhs = universal_pij(i, j).evaluate(assign, split)
            assert split.eq(lhs, rhs), (i, j, str(a))
    _report(1, "P_k and P_{i,j} reproduce the split-model lambda operations",
            t0, budget=30)


def test_criterion_02_golden_p2_and_pl2():
    t0 = time.time()
    with open(osp.join(GOLDEN, "p2.json")) as fh:
        assert universal_pk(2).to_obj() == json.load(fh)
    with open(osp.join(GOLDEN, "pl2.json")) as fh:
        assert left_linearise(universal_pk(2)).to_obj() == json.load(fh)
    # cross-check the committed values against the raw splitting oracle
    p2 = from_obj(json.loads(open(osp.join(GOLDEN, "p2.json")).read()))
    rng = random.Random(7)
    for _ in range(20):
        a = [rng.randint(-5, 5) for _ in range(2)]
        b = [rng.randint(-5, 5) for _ in range(2)]
        assign = {("x", i): esym(a, i) for i in (1, 2)}
        assign |= {("y", j): esym(b, j) for j in (1, 2)}
        assert p2.evaluate(assign) == esym(grid_products(a, b), 2)
    _report(2, "P2 and PL2 golden files match the splitting oracle", t0)


def test_criterion_03_biring_laws_level_6():
    t0 = time.time()
    N = 6
    corpus = _monomial_corpus(N)
    for x in corpus:
        idx = sorted({i for (f, i) in x.poly.variables() if f == "L"})
        for image in (coadd_image, comult_image):
            first = x.poly.substitute({("L", k): image(k, "M", "T3") for k in idx})
            m_idx = sorted({i for (f, i) in first.variables() if f == "M"})
            route1 = first.substitute({("M", k): image(k, "T1", "T2") for k in m_idx})
            second = x.poly.substitute({("L", k): image(k, "T1", "M") for k in idx})
            m_idx = sorted({i for (f, i) in second.variables() if f == "M"})
            route2 = second.substitute({("M", k): image(k, "T2", "T3") for k in m_idx})
            for leg in ("T1", "T2", "T3"):
                route1 = route1.truncate_family(leg, N)
                route2 = route2.truncate_family(leg, N)
            assert route1 == route2, f"coassociativity at {x}"
    # antipode law, involution
    from lambdaops.kbu import coadd, cozero

    sigma_images = {("T1", k): sigma_gen(k) for k in range(1, N + 1)}
    ident_images = {("T2", k): IntPoly.var("L", k) for k in range(1, N + 1)}
    for x in corpus:
        merged = coadd(x).poly.substitute(sigma_images | ident_images)
        assert KBUElem(merged, N) == KBUElem.from_int(cozero(x), N)
        assert antipode(antipode(x)) == x
    # co-linear multiplicativity and gamma(-1) = antipode
    for k1, k2 in itertools.product(range(-3, 4), repeat=2):
        for k in range(1, N + 1):
            assert colinear(k1, colinear(k2, gen(k, N))) == colinear(k1 * k2, gen(k, N))
    for k in range(1, N + 1):
        assert colinear(-1, gen(k, N)) == antipode(gen(k, N))
    _report(3, "biring laws at truncation level 6", t0, budget=30)


def test_criterion_04_composition_vs_action_oracle():
    t0 = time.time()
    N, W = 4, 16
    rng = random.Random(202)
    models = register_models(validate=False)
    elements = {n: m.samples(random.Random(17), 5) for n, m in models.items()}
    fns = [chi(0), chi(1), chi(-1), chi(2), chi(-2), chi(3), const(1), const(-1), const(2)]
    xs = [
        gen(1, N), gen(2, N), gen(1, N) + 1, gen(2, N) - gen(1, N),
        2 * gen(1, N), gen(1, N) * gen(1, N), gen(2, N) + 3,
        KBUElem.from_int(1, N),
    ]
    corpus = [
        EvenOp.from_pairs(
            [(rng.choice(fns), rng.choice(xs)) for _ in range(rng.randint(1, 2))],
            N, W)
        for _ in range(40)
    ]
    checked = 0
    for _ in range(100):
        r, s = rng.choice(corpus), rng.choice(corpus)
        comp = compose_even(r, s)
        for name, m in models.items():
            for alpha in elements[name]:
                lhs = act(comp, m, alpha)
                rhs = act(r, m, act(s, m, alpha))
                assert m.eq(lhs, rhs), (name, str(r), str(s), m.show(alpha))
                checked += 1
    assert checked >= 100 * len(models) * 5
    _report(4, f"act(r o s) = act(r, act(s, -)) on {checked} instances",
            t0, budget=60)


def test_criterion_05_monoid_laws():
    t0 = time.time()
    N, W = 8, 16
    rng = random.Random(303)
    fns = [chi(0), chi(1), chi(-1), chi(2), const(1), const(-1), const(2)]
    xs = [
        gen(1, N), gen(2, N), gen(1, N) + 1, gen(2, N) - gen(1, N),
        2 * gen(1, N), gen(1, N) * gen(1, N), KBUElem.from_int(1, N),
    ]
    corpus = [
        EvenOp.from_pairs(
            [(rng.choice(fns), rng.choice(xs)) for _ in range(rng.randint(1, 2))],
            N, W)
        for _ in range(40)
    ]
    ident = identity_op(N, W)
    for r in corpus:
        assert compose_even(ident, r) == r
        assert compose_even(r, ident) == r
    for t in range(100):
        r, s, u = (rng.choice(corpus) for _ in range(3))
        lhs = compose_even(compose_even(r, s), u)
        rhs = compose_even(r, compose_even(s, u))
        assert lhs == rhs, (str(r), str(s), str(u))
    _report(5, "composition unit laws and associativity on 100 triples", t0)


def test_criterion_06_looping_axioms():
    t0 = time.time()
    report = check_looping_axioms(5, 16)
    assert report["pass"], report
    assert report["axioms"]["2"]["instances"] >= 50
    for aid in ("1", "2", "3", "4"):
        assert report["axioms"][aid]["pass"], report["axioms"][aid]
    _report(6, "looping axioms (1)-(4) at truncation level 5", t0)


def test_criterion_07_quotient_presentation_relations():
    t0 = time.time()
    report = main_relations_check(5, 5, 16)
    assert report["pass"], report
    assert [entry["p"] for entry in report["relations"]] == [1, 2, 3, 4, 5]
    _report(7, "defining relations of the looped quotient for p <= 5, all indicators", t0)


def test_criterion_08_finite_rank_models():
    t0 = time.time()
    from helpers import binom

    for n in range(2, 7):
        for k in range(1, n + 1):
            got = un_restrict(lk_from_mu(n, k))
            if k <= n - 1:
                assert got == lk_from_mu(n - 1, k), (n, k)
            else:
                expected = un_one(n - 1) * 0
                for j in range(n):
                    if 1 <= n - j <= n - 1:
                        expected = expected + binom(-(n - 1), j) * un_mu(n - 1, n - j)
                assert got == expected, (n, k)
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert bun_restrict(lambdak_from_beta(n + 1, k)) == lambdak_from_beta(n, k)
    _report(8, "restriction identities for ranks up to 6", t0, budget=5)


def test_criterion_09_adams_cross_check():
    t0 = time.time()
    N = 9
    for m, n in itertools.product((1, 2, 3), repeat=2):
        got = compose_kbu(psi_kbu(m, N), psi_kbu(n, N))
        assert got == psi_kbu(m * n, N), (m, n)
    # the loop of l2 is minus the second Adams element
    W = 16
    lhs = loop_odd(lgen(2, 5), W)
    rhs = EvenOp.from_pairs([(const(-1), psi_kbu(2, 5))], 5, W)
    assert lhs == rhs
    _report(9, "Adams composition psi^m o psi^n = psi^mn and loop(l2) = -psi2", t0)


def test_criterion_10_sphere_suspension_fact():
    t0 = time.time()
    sphere = ProjectiveModel(1, name="sphere")
    u = IntPoly.var("u", 1)
    for i in range(1, 6):
        assert sphere.lam(i, u) == (-1) ** (i - 1) * u, i
    _report(10, "sphere-model lambda^i(u) = (-1)^(i-1) u for i <= 5", t0)


def test_criterion_11_coi_ring_laws():
    t0 = time.time()
    mod6 = ModRing(6)
    rng = random.Random(404)

    def rand_family():
        if rng.random() < 0.4:
            return COIFamily(mod6, {rng.randint(-8, 8): 1})
        d1 = rng.randint(-8, 8)
        d2 = d1
        while d2 == d1:
            d2 = rng.randint(-8, 8)
        return COIFamily(mod6, {d1: 3, d2: 4})

    fams = [rand_family() for _ in range(60)]
    zero = COIFamily.delta(mod6, 0)
    one_f = COIFamily.delta(mod6, 1)
    for idx in range(50):
        a = fams[idx]
        b = fams[(idx + 7) % 60]
        c = fams[(idx + 23) % 60]
        assert coi_add(a, b) == coi_add(b, a)
        assert coi_mul(a, b) == coi_mul(b, a)
        assert coi_add(coi_add(a, b), c) == coi_add(a, coi_add(b, c))
        assert coi_mul(coi_mul(a, b), c) == coi_mul(a, coi_mul(b, c))
        assert coi_mul(a, coi_add(b, c)) == coi_add(coi_mul(a, b), coi_mul(a, c))
        assert coi_add(a, zero) == a
        assert coi_mul(a, one_f) == a
    # over an integral domain every family is a delta and the ring collapses
    ring = IntegerRing()
    for c, d in itertools.product((-3, -1, 0, 2, 4), repeat=2):
        assert coi_add(COIFamily.delta(ring, c), COIFamily.delta(ring, d)) == \
            COIFamily.delta(ring, c + d)
        assert coi_mul(COIFamily.delta(ring, c), COIFamily.delta(ring, d)) == \
            COIFamily.delta(ring, c * d)
    try:
        COIFamily(ring, {0: 1, 1: 1})
        raise AssertionError("non-singleton family accepted over Z")
    except InvalidFamily:
        pass
    _report(11, "orthogonal-idempotent ring laws over Z/6 and the Z collapse", t0)
