import itertools
import math
import random
import subprocess
import sys

import pytest

from helpers import (
    reference_coadd_image,
    reference_comult_image,
    reference_gamma,
    reference_gen_compose,
    reference_sigma_gen,
    retruncate,
)
from lambdaops import kbu, symfun
from lambdaops.errors import NotReduced
from lambdaops.intpoly import IntPoly
from lambdaops.kbu import (
    KBUElem,
    antipode,
    coadd,
    coadd_multi,
    coadd_image,
    colinear,
    comult,
    comult_image,
    compose_kbu,
    cozero,
    gamma_gen,
    gen,
    is_primitive,
    psi_kbu,
    sigma_gen,
    tensor_of,
)

N = 6


def one(trunc=N):
    return KBUElem.from_int(1, trunc)


def test_truncation_on_construction():
    x = KBUElem(IntPoly.var("L", 7) + IntPoly.var("L", 3), N)
    assert x == gen(3, N)
    assert gen(9, N).is_zero
    with pytest.raises(ValueError):
        gen(1, N) + gen(1, N + 1)


def test_coadd_generators():
    t = coadd(gen(1, N))
    assert t == tensor_of(gen(1, N), one()) + tensor_of(one(), gen(1, N))
    t2 = coadd(gen(2, N))
    expected = (
        tensor_of(gen(2, N), one())
        + tensor_of(gen(1, N), gen(1, N))
        + tensor_of(one(), gen(2, N))
    )
    assert t2 == expected
    assert coadd(one()) == tensor_of(one(), one())


def test_comult_generators():
    assert comult(gen(1, N)) == tensor_of(gen(1, N), gen(1, N))
    l1, l2 = gen(1, N), gen(2, N)
    expected = (
        tensor_of(l1 * l1, l2)
        + tensor_of(l2, l1 * l1)
        + tensor_of(l2, (-2) * l2)
    )
    assert comult(l2) == expected
    assert comult(one()) == tensor_of(one(), one())


def test_cozero():
    assert cozero(gen(4, N)) == 0
    assert cozero(one() + 3 * gen(1, N)) == 1
    assert cozero(gen(1, N) * gen(2, N)) == 0


def test_antipode_examples():
    assert antipode(gen(1, N)) == -gen(1, N)
    assert antipode(gen(2, N)) == gen(1, N) * gen(1, N) - gen(2, N)
    assert antipode(antipode(gen(3, N))) == gen(3, N)


def test_antipode_is_involution_on_products():
    x = gen(1, N) * gen(2, N) + 5 * gen(4, N) - 2
    assert antipode(antipode(x)) == x


def test_hopf_antipode_law():
    # multiply after (sigma (x) id) applied to the co-addition collapses to
    # the augmentation, including on non-generators
    corpus = [gen(k, N) for k in range(1, N + 1)]
    corpus += [gen(1, N) * gen(2, N) + 3 * gen(3, N), one() + gen(2, N)]
    sigma_images = {("T1", k): sigma_gen(k) for k in range(1, N + 1)}
    ident_images = {("T2", k): IntPoly.var("L", k) for k in range(1, N + 1)}
    for x in corpus:
        merged = coadd(x).poly.substitute(sigma_images | ident_images)
        assert KBUElem(merged, N) == KBUElem.from_int(cozero(x), N)


def test_colinear_examples():
    x = gen(2, N) + 3 * gen(1, N) * gen(1, N)
    assert colinear(1, x) == x
    for k in range(1, N + 1):
        assert colinear(0, gen(k, N)).is_zero
        assert colinear(-1, gen(k, N)) == antipode(gen(k, N))


def test_gamma_closed_form_matches_the_substitution_into_p_k():
    """gamma(kappa)(L_k), one term per partition of k, against P_k at
    x_i = C(kappa, i): in L through gamma_gen, and in the T1/T2 legs of the
    co-multiplication as sum_r C(kappa, r) D_{k,r}, D_{k,r} being the slices
    of the partitions of k by length that its basis reads, at every kappa in
    [-17, 17] and +-10^6, k <= 10."""
    from lambdaops.symfun import lambda_of_integer, partition_slices

    for kappa in [*range(-17, 18), 10**6, -10**6]:
        for k in range(11):
            want = reference_gamma(kappa, k)
            if k:
                assert gamma_gen(kappa, k) == want, (kappa, k)
            for leg in ("T1", "T2"):
                got = IntPoly.linear_combination(
                    (lambda_of_integer(kappa, r), d) for r, d in enumerate(partition_slices(k, leg)))
                assert got == want.rename_family("L", leg), (kappa, k, leg)
    for k in range(1, 11):
        assert gamma_gen(0, k).is_zero
        assert gamma_gen(1, k) == IntPoly.var("L", k)
    for k in range(16):
        assert gamma_gen(-1, k) == sigma_gen(k) == reference_sigma_gen(k), k


def test_antipode_law_sees_a_wrong_sigma_gen(monkeypatch):
    from lambdaops.checks import biring_suite

    wrong = sigma_gen(3) + gen(1, N).poly * gen(2, N).poly
    monkeypatch.setitem(kbu._SIGMA_CACHE, 3, wrong)
    assert sigma_gen(3) == wrong
    props = {p["id"]: p["pass"] for p in biring_suite(4)["properties"]}
    assert not props["antipode-law"]
    assert props["colinear-structure"]


def test_colinear_multiplicative():
    for k1, k2 in itertools.product((-3, -2, -1, 0, 1, 2, 3), repeat=2):
        for k in (1, 2, 3):
            lhs = colinear(k1, colinear(k2, gen(k, N)))
            assert lhs == colinear(k1 * k2, gen(k, N))


def test_compose_units():
    y = gen(2, N) + 3 * gen(1, N)
    assert compose_kbu(gen(1, N), y) == y
    x = gen(2, N) * gen(2, N) - gen(4, N)
    assert compose_kbu(x, gen(1, N)) == x


def test_compose_generator_pair():
    got = compose_kbu(gen(2, N), gen(2, N))
    assert got == gen(1, N) * gen(3, N) - gen(4, N)
    # the same composition at a lower level loses the top generator
    got3 = compose_kbu(gen(2, 3), gen(2, 3))
    assert got3 == gen(1, 3) * gen(3, 3)


def test_compose_requires_reduced_right():
    with pytest.raises(NotReduced):
        compose_kbu(gen(1, N), gen(1, N) + 1)


def test_compose_with_zero_gives_augmentation():
    x = one() * 5 + gen(2, N)
    assert compose_kbu(x, KBUElem.from_int(0, N)) == KBUElem.from_int(5, N)


def test_compose_associative_within_weight():
    trunc = 8
    for i, j, k in itertools.product(range(1, 9), repeat=3):
        if i * j * k > 8:
            continue
        lhs = compose_kbu(compose_kbu(gen(i, trunc), gen(j, trunc)), gen(k, trunc))
        rhs = compose_kbu(gen(i, trunc), compose_kbu(gen(j, trunc), gen(k, trunc)))
        assert lhs == rhs, (i, j, k)


# every monomial of weight <= 4 in the generators, and seeded sums of two and
# three of its multiples; the two powers are composed up to L4 only, as L5 and
# L6 o L1^40 already hold about 10^5 and 10^7 monomials
_MONOMIALS = [math.prod([IntPoly.var("L", j) for j in parts], start=IntPoly.one())
              for r in range(1, 5) for parts in itertools.combinations_with_replacement(range(1, 5), r)
              if sum(parts) <= 4]
_TERMS = [c * m for m in _MONOMIALS for c in (-3, -1, 1, 2)]
_RNG = random.Random(20)
_SUMS = [sum(_RNG.sample(_TERMS, n), IntPoly.zero()) for n in (2, 3) for _ in range(40)]
COMPOSE_CORPUS = ([(6, y) for y in _TERMS + _SUMS]
                  + [(4, IntPoly.var("L", 1, 40)), (4, IntPoly.var("L", 2, 8))])


def test_gen_compose_matches_the_case_by_case_recursion():
    assert len(_MONOMIALS) == 11
    for gmax, y in COMPOSE_CORPUS:
        for g in range(1, gmax + 1):
            assert kbu._gen_compose(g, y) == reference_gen_compose(g, y), (g, y)


def test_compose_of_generators_is_p_ij():
    for i, j in itertools.product(range(1, 26), repeat=2):
        if i * j <= 25:
            assert compose_kbu(gen(i, i * j), gen(j, i * j)).poly == symfun.universal_pij(i, j)


def test_compose_takes_one_path(monkeypatch):
    """With cleared caches, composition calls none of P_k, P_{i,j} or gamma."""
    kbu._COMPOSE_CACHE.clear()
    kbu._adams_image.cache_clear()
    symfun._adams_lambda.cache_clear()

    def forbidden(name):
        def call(*args):
            raise AssertionError(f"compose_kbu called {name}{args}")
        return call

    for module in [m for n, m in sys.modules.items() if n.startswith("lambdaops")]:
        for name in ("universal_pk", "universal_pij", "gamma_gen"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden(name))
    for gmax, y in COMPOSE_CORPUS:
        compose_kbu(gen(gmax, 6), KBUElem(y, 6))


def test_coassociativity_three_routes():
    for k in range(1, N + 1):
        x = gen(k, N)
        via_first = x.poly.substitute({("L", k): coadd_image(k, "M", "T3")})
        m_idx = sorted({i for (f, i) in via_first.variables() if f == "M"})
        route1 = via_first.substitute({("M", m): coadd_image(m, "T1", "T2") for m in m_idx})
        route3 = coadd_multi(x, 3)
        assert route1 == route3


@pytest.mark.parametrize("legs", [("T1", "T2"), ("M", "T3"), ("T1", "M"), ("T2", "T3")])
def test_coadd_image_is_the_sum_over_i_plus_j(legs):
    for k in range(1, 11):
        assert coadd_image(k, *legs) == reference_coadd_image(k, *legs), (k, legs)


@pytest.mark.parametrize("legs", [0, -1])
def test_coadd_multi_needs_a_leg(legs):
    for x in (gen(3, N), KBUElem.from_int(2, N)):
        with pytest.raises(ValueError):
            coadd_multi(x, legs)


def test_filtration_projection_is_ring_map():
    a = gen(2, N) + gen(5, N)
    b = gen(3, N) * gen(1, N) + 1
    for level in (2, 3, 4):
        lhs = retruncate(a * b, level)
        rhs = retruncate(a, level) * retruncate(b, level)
        assert lhs == rhs
        lhs = retruncate(a + b, level)
        assert lhs == retruncate(a, level) + retruncate(b, level)


def test_primitives():
    assert is_primitive(gen(1, N))
    assert not is_primitive(gen(2, N))
    for k in (2, 3, 4, 5):
        assert is_primitive(psi_kbu(k, N)), k


def test_adams_composition_small():
    p2, p3 = psi_kbu(2, 6), psi_kbu(3, 6)
    assert compose_kbu(p2, p3) == psi_kbu(6, 6)
    assert compose_kbu(p3, p2) == psi_kbu(6, 6)


@pytest.mark.parametrize("legs", [("T1", "T2"), ("M", "T3"), ("T1", "M"), ("T2", "T3"),
                                  ("U", "V"), ("y", "x")])
def test_comult_image_is_p_k_in_its_legs(legs):
    for k in range(1, 10):
        assert comult_image(k, *legs) == reference_comult_image(k, *legs), (k, legs)


def test_comult_image_builds_no_p_k_in_x_and_y():
    # each leg pair's product alphabet is built in its own legs, so a fresh
    # process registers no x or y variable and fills no P_k
    code = """
from lambdaops import intpoly, symfun
from lambdaops.kbu import comult_image
for k in range(1, 7):
    comult_image(k)
print(sorted({f for f, _ in intpoly._SHIFTS} & {"x", "y"}), len(symfun._PK_CACHE))
"""
    got = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert got.returncode == 0, got.stderr
    assert got.stdout.split() == ["[]", "0"]
