import random

import pytest

from helpers import TuplePoly, from_json, reference_str, reference_substitute, reference_to_json
from lambdaops.errors import LambdaOpsError
from lambdaops.intpoly import MAX_EXPONENT, IntPoly


def rand_poly(rng, families=("x", "y"), terms=4):
    p = IntPoly.zero()
    for _ in range(terms):
        mono = IntPoly.const(rng.randint(-5, 5))
        for f in families:
            e = rng.randint(0, 2)
            if e:
                mono = mono * IntPoly.var(f, rng.randint(1, 3), e)
        p = p + mono
    return p


def test_no_zero_coefficients_stored():
    p = IntPoly.var("x", 1) - IntPoly.var("x", 1)
    assert p.is_zero and p.terms == {}
    q = IntPoly({(("x", 1, 1),): 0})
    assert q.is_zero


def test_results_hold_no_zero_coefficient():
    # operands built to cancel: p against -p plus a little, (a + b)(a - b),
    # and substitutions whose images cancel each other
    rng = random.Random(17)

    def zero_free(q):
        return all(c != 0 for c in q.terms.values())

    for _ in range(30):
        a, b = rand_poly(rng, terms=6), rand_poly(rng, terms=6)
        near = -a + rand_poly(rng, terms=2)
        results = [a + near, a - (a + b), -(a - a), near + a, 3 * (a - a), a * 0,
                   (a + b) * (a - b), (a - b) ** 3, (b - b) ** 2,
                   (a * b - b * a).truncate_family("x", 2), (a + near).truncate_family("y", 1)]
        images = {("x", k): IntPoly.var("y", k) - IntPoly.var("x", k) for k in (1, 2, 3)}
        results.append((a + IntPoly.var("x", 1) - IntPoly.var("y", 1)).substitute(images))
        results.append((a - b).substitute({("y", 1): IntPoly.var("x", 1) - 1, ("y", 2): 0}))
        assert all(zero_free(q) for q in results)
        assert (a + near) == a + near - 0 and a - a == 0


def test_ring_laws_randomized():
    rng = random.Random(42)
    for _ in range(40):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_pow_matches_repeated_multiplication():
    rng = random.Random(1)
    p = rand_poly(rng)
    q = IntPoly.one()
    for n in range(5):
        assert p**n == q
        q = q * p


def test_substitute_is_ring_map():
    x1 = IntPoly.var("x", 1)
    x2 = IntPoly.var("x", 2)
    p = x1 * x1 + 2 * x2 - 3
    images = {("x", 1): IntPoly.var("y", 1) + 1, ("x", 2): IntPoly.const(5)}
    got = p.substitute(images)
    y1 = IntPoly.var("y", 1)
    assert got == (y1 + 1) * (y1 + 1) + 10 - 3


def test_substitute_family_matches_full_substitution():
    rng = random.Random(5)
    for _ in range(20):
        p = rand_poly(rng, families=("L", "y"))
        full = {("L", k): IntPoly.var("z", k) * k - 1 for k in range(1, 4)}
        called = []

        def image(k):
            called.append(k)
            return full[("L", k)]

        assert p.substitute_family("L", image) == p.substitute(full)
        # only indices that occur are asked for, each once
        assert sorted(called) == sorted({i for (f, i) in p.variables() if f == "L"})


def test_indices_match_variables():
    # the keys-only query against the full one, on random polynomials and on
    # families that hold no variable of the polynomial
    rng = random.Random(29)
    for _ in range(200):
        p = rand_poly(rng, families=("x", "y", "z"), terms=rng.randint(0, 6))
        for family in ("x", "y", "z", "w"):
            want = sorted(i for (f, i) in p.variables() if f == family)
            assert p.indices(family) == want


def test_evaluate():
    p = IntPoly.var("x", 1, 2) * IntPoly.var("y", 1) - 4
    assert p.evaluate({("x", 1): 3, ("y", 1): -2}) == -22


def test_truncate_family():
    p = IntPoly.var("L", 2) * IntPoly.var("L", 5) + IntPoly.var("L", 3)
    assert p.truncate_family("L", 4) == IntPoly.var("L", 3)
    assert p.truncate_family("L", 5) == p


def test_family_degree_filter():
    x2 = IntPoly.var("x", 2)
    y1 = IntPoly.var("y", 1)
    p = IntPoly.var("x", 1, 2) * IntPoly.var("y", 2) + x2 * y1 * y1 - 2 * x2
    linear = p.part_of_family_degree("x", 1)
    assert linear == x2 * y1 * y1 - 2 * x2
    assert (p + 5).part_of_family_degree("x", 0, 1) == linear + 5
    assert (p + 5).part_of_family_degree("y", 1, 2) == p + 2 * x2


def test_monomial_views_randomized():
    """collect, linear_coefficients, sorted_terms, coefficient, variables and
    div_exact against brute force on random polynomials."""
    rng = random.Random(31)
    families = ("L", "T1", "x")
    for _ in range(40):
        p = rand_poly(rng, families=families, terms=8)
        p = p + rng.randint(-3, 3) * IntPoly.var(rng.choice(families), rng.randint(1, 3))
        terms = p.sorted_terms()
        assert IntPoly.sum_of_products((m, IntPoly.const(c)) for m, c in terms) == p
        assert [m.to_obj() for m, _ in terms] == [[dict(t, coeff="1")] for t in p.to_obj()]
        for m, c in terms:
            assert p.coefficient(m) == c and len(m.sorted_terms()) == 1
        for family in families:
            groups = p.collect(family)
            assert IntPoly.sum_of_products(groups) == p
            keys = [m.to_obj()[0]["mono"] for m, _ in groups]
            assert keys == sorted(keys) and len(set(map(str, keys))) == len(keys)
            for m, coeff in groups:
                assert {f for (f, _) in m.variables()} <= {family}
                assert family not in {f for (f, _) in coeff.variables()}
            expected = {i: p.coefficient(IntPoly.var(family, i)) for i in range(1, 4)}
            assert p.linear_coefficients(family) == {i: c for i, c in expected.items() if c}
        degrees = {}
        for t in p.to_obj():
            for f, i, e in t["mono"]:
                degrees[(f, i)] = max(e, degrees.get((f, i), 0))
        assert p.variables() == degrees
        assert (6 * p).div_exact(3) == 2 * p


def test_div_exact_rejects_remainder():
    p = 4 * IntPoly.var("x", 1) + 3 * IntPoly.var("x", 2)
    assert p.div_exact(1) == p
    with pytest.raises(ValueError, match="coefficient 3 of .* is not divisible by 2"):
        p.div_exact(2)


def test_evaluate_in_a_ring():
    class Mod7:
        def from_int(self, n):
            return n % 7

        def add(self, a, b):
            return (a + b) % 7

        def mul(self, a, b):
            return a * b % 7

        def combine(self, coeffs, values):
            return sum(c * v for c, v in zip(coeffs, values)) % 7

    rng = random.Random(3)
    for _ in range(10):
        p = rand_poly(rng, terms=6)
        assign = {(f, i): rng.randint(-9, 9) for f in ("x", "y") for i in (1, 2, 3)}
        assert p.evaluate(assign, Mod7()) == p.evaluate(assign) % 7


def test_serialisation_roundtrip_and_determinism():
    rng = random.Random(7)
    for _ in range(10):
        p = rand_poly(rng, families=("L", "x"), terms=6)
        blob = p.to_json()
        assert from_json(blob) == p
        assert p.to_json() == blob
    obj = (IntPoly.var("x", 1) + IntPoly.var("x", 2, 3) * 10**40).to_obj()
    coeffs = [t["coeff"] for t in obj]
    assert all(isinstance(c, str) for c in coeffs)
    assert "1" in coeffs and str(10**40) in coeffs


def test_canonical_term_order():
    p = IntPoly.var("y", 1) + IntPoly.var("x", 2) + IntPoly.var("x", 1) + 7
    monos = [t["mono"] for t in p.to_obj()]
    assert monos == [[], [["x", 1, 1]], [["x", 2, 1]], [["y", 1, 1]]]


def test_str_forms():
    p = IntPoly.var("x", 1, 2) - 2 * IntPoly.var("x", 2)
    assert str(p) == "x1^2 - 2*x2"
    assert str(IntPoly.zero()) == "0"


def _serialisation_cases():
    """Seeded random polynomials over the T1/T2/U/V/L families with large
    indices, exponents and coefficients, plus the edge cases by name."""
    rng = random.Random(23)
    cases = [IntPoly.zero(), IntPoly.one(), IntPoly.const(-7), IntPoly.const(10**40),
             IntPoly.var("T1", 12, 10) * -(10**40) + IntPoly.var("U", 3) - 1,
             IntPoly.var("V", 100, 11) * IntPoly.var("T2", 1) + IntPoly.var("L", 10, 1) * 3]
    for _ in range(60):
        p = IntPoly.zero()
        for _ in range(rng.randint(0, 8)):
            mono = IntPoly.const(rng.choice([1, -1, 2, -12, 10**40, -(10**40)]))
            for f in rng.sample(["T1", "T2", "U", "V", "L"], rng.randint(0, 3)):
                mono = mono * IntPoly.var(f, rng.choice([1, 2, 9, 10, 123]), rng.choice([1, 2, 10, 13]))
            p = p + mono
        cases.append(p)
    return cases


def test_serialisation_matches_the_reference_forms():
    cases = _serialisation_cases()
    assert IntPoly.zero().to_json() == "[]" and str(IntPoly.zero()) == "0"
    assert IntPoly.one().to_json() == '[{"coeff":"1","mono":[]}]'
    for p in cases:
        assert p.to_json() == reference_to_json(p)
        assert str(p) == reference_str(p)


def test_key_and_hash_ignore_insertion_order():
    rng = random.Random(11)
    for _ in range(20):
        p = rand_poly(rng, families=("L", "T1", "x"), terms=8)
        q = IntPoly(dict(reversed(p.terms.items())))
        assert q == p
        assert q.key() == p.key() and hash(q) == hash(p)
        assert {p: 1}[q] == 1
        # exponents near the field width, against the tuple kernel's forms
        p, t = twin_polys(rng, terms=8, big=True)
        items = list(t.terms.items())
        rng.shuffle(items)
        q = IntPoly(dict(items))
        assert q == p and hash(q) == hash(p) and q.key() == p.key() == t.key()
        assert str(q) == str(t) and q.to_json() == t.to_json()


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        IntPoly.var("x", 1, -1)


# -- the packed kernel against the tuple kernel ----------------------------------

FAMILIES = ("L", "T1", "x")


def twin_polys(rng, terms=5, big=False):
    """The same random polynomial as an IntPoly and as a TuplePoly; with
    `big`, some exponents lie just below 2^14 or 2^15."""
    exps = [1, 1, 2, 3] + ([2**14 - 1, 2**14, 2**15 - 2, MAX_EXPONENT] if big else [])
    tmap = {}
    for _ in range(terms):
        mono = {}
        for _ in range(rng.randint(0, 3)):
            mono[(rng.choice(FAMILIES), rng.randint(1, 4))] = rng.choice(exps)
        tmap[tuple(sorted((f, i, e) for (f, i), e in mono.items()))] = rng.randint(-4, 4)
    return IntPoly(tmap), TuplePoly(tmap)


def max_exponent(t):
    return max((e for m in t.terms for (_, _, e) in m), default=0)


def assert_same(p, t):
    assert p.terms == t.terms
    assert str(p) == str(t) and p.to_json() == t.to_json() and p.key() == t.key()


def test_packed_kernel_matches_the_tuple_kernel():
    rng = random.Random(2024)
    for _ in range(60):
        (a, ta), (b, tb) = twin_polys(rng), twin_polys(rng)
        for p, t in [(a + b, ta + tb), (a - b, ta - tb), (-a, -ta), (3 * a, ta * 3),
                     (a * b, ta * tb), (a ** 3, ta ** 3), (b ** 0, tb ** 0)]:
            assert_same(p, t)
        images = {(f, i): twin_polys(rng, terms=2) for f in ("L", "x") for i in (1, 2)}
        assert_same(a.substitute({v: q for v, (q, _) in images.items()}),
                    ta.substitute({v: t for v, (_, t) in images.items()}))
        # one-term polynomials, where substitute may hand back a copy of an
        # image or multiply by the image itself: coefficient 1 or not,
        # exponent 1 or above, with and without an untouched variable
        for c, e in ((1, 1), (1, 3), (-2, 1), (3, 2)):
            for mono in ((("L", 1, e),), (("L", 1, e), ("L", 2, 1)), (("L", 2, e), ("y", 1, 1))):
                assert_same(IntPoly({mono: c}).substitute({v: q for v, (q, _) in images.items()}),
                            TuplePoly({mono: c}).substitute({v: t for v, (_, t) in images.items()}))
        for q, t in images.values():  # the images themselves are left intact
            assert_same(q, t)
        image = {k: twin_polys(rng, terms=2) for k in range(1, 5)}
        assert_same(a.substitute_family("T1", lambda k: image[k][0]),
                    ta.substitute_family("T1", lambda k: image[k][1]))
        for family in FAMILIES:
            assert_same(a.truncate_family(family, 2), ta.truncate_family(family, 2))
            assert_same(a.part_of_family_degree(family, 1, 2),
                        ta.part_of_family_degree(family, 1, 2))
            assert [(str(m), str(c)) for m, c in a.collect(family)] == \
                [(str(m), str(c)) for m, c in ta.collect(family)]
        assert_same(a.rename_family("T1", "U"), ta.rename_family("T1", "U"))
        point = {(f, i): rng.randint(-3, 3) for f in FAMILIES for i in range(1, 5)}
        assert a.evaluate(point) == ta.evaluate(point)
        assert a.variables() == ta.variables()


def test_rename_all_swaps_families_and_adds_the_terms_that_meet():
    """`rename_all` against the tuple kernel: an exchange of two families on
    a list of random polynomials (no monomials can meet), and a renaming
    onto a family already present, where some polynomials of the list have
    two monomials meeting and others none."""
    rng = random.Random(26)
    twins = [twin_polys(rng) for _ in range(12)]
    swapped = IntPoly.rename_all([a for a, _ in twins], {"L": "T1", "T1": "L"})
    for got, (_, t) in zip(swapped, twins):
        assert_same(got, t.rename_family("L", "U").rename_family("T1", "L").rename_family("U", "T1"))
    l1, t1, x1 = IntPoly.var("L", 1), IntPoly.var("T1", 1), IntPoly.var("x", 1)
    polys = [l1 + t1, l1 - t1, l1 * t1 + 3 * x1, x1 - 2 * l1 * l1, IntPoly.zero()]
    want = [2 * t1, IntPoly.zero(), t1 * t1 + 3 * x1, x1 - 2 * t1 * t1, IntPoly.zero()]
    assert IntPoly.rename_all(polys, {"L": "T1"}) == want
    assert [p.rename_family("L", "T1") for p in polys] == want


def test_substitute_scaled_copy_of_one_image():
    """A term c * v, with v substituted and nothing left untouched, lands in
    an empty result as a copy of v's image scaled by c; every other term,
    including c * v * w with w untouched, takes the product loop."""
    rng = random.Random(31)
    x1, x2, t1 = IntPoly.var("x", 1), IntPoly.var("x", 2), IntPoly.var("T1", 1)
    for _ in range(40):
        images = {("L", i): twin_polys(rng, terms=4) for i in (1, 2, 3)}
        packed = {v: q for v, (q, _) in images.items()}
        tuples = {v: t for v, (_, t) in images.items()}
        for c in (1, -1, 7):
            for mono in ((("L", 1, 1),), (("L", 3, 1),), (("L", 2, 2),),
                         (("L", 2, 1), ("T1", 1, 1)), (("L", 1, 1), ("x", 2, 2)), ()):
                assert_same(IntPoly({mono: c}).substitute(packed),
                            TuplePoly({mono: c}).substitute(tuples))
            # the first term is copied, later ones are added into the copy
            tmap = {(("L", 1, 1),): c, (("L", 2, 1),): -c, (("L", 1, 1), ("T1", 2, 1)): 3,
                    (("x", 1, 1),): c}
            for order in (tmap, dict(reversed(tmap.items()))):
                assert_same(IntPoly(order).substitute(packed), TuplePoly(order).substitute(tuples))
        for q, t in images.values():  # a copied image is not the image itself
            assert_same(q, t)
    for c in (1, -1, 7):
        # terms that land on one monomial cancel, whichever comes first
        images = {("L", 1): t1 + x1, ("L", 2): t1 - x2}
        assert (c * IntPoly.var("L", 1) - c * IntPoly.var("L", 2)).substitute(images) == c * (x1 + x2)
        assert (c * IntPoly.var("L", 1) - c * x1).substitute(images) == c * t1
        assert (-c * x1 + c * IntPoly.var("L", 1)).substitute(images) == c * t1
        assert (c * IntPoly.var("L", 1) - c * t1 - c * x1).substitute(images).is_zero
        assert images == {("L", 1): t1 + x1, ("L", 2): t1 - x2}
    # an untouched variable that meets its own image still trips the guard,
    # also after a first term was copied
    big = IntPoly.var("L", 1, MAX_EXPONENT) * IntPoly.var("L", 2)
    for p in (big, 7 * IntPoly.var("L", 2) + big):
        with pytest.raises(LambdaOpsError, match=f"exponent above {MAX_EXPONENT}"):
            p.substitute({("L", 2): IntPoly.var("L", 1)})


def test_substitute_matches_the_per_term_loop():
    """Grouped by their substituted part, the terms give what the per-term
    loop gives: with untouched families as cofactors, one part shared by
    several cofactors, powers up to 4, integer and zero images, images that
    reuse a mapped variable, cancellation to zero and the exponent guard."""
    rng = random.Random(29)
    ls = [IntPoly.var("L", i) for i in (1, 2, 3)]
    ts = [IntPoly.var("T1", 1), IntPoly.var("T2", 1), IntPoly.var("T1", 2)]

    def rand_mono(pool, top):
        mono = IntPoly.one()
        for v in rng.sample(pool, rng.randint(0, len(pool))):
            mono = mono * v ** rng.randint(1, top)
        return mono

    for _ in range(60):
        parts = [rand_mono(ls, 4) for _ in range(3)]
        cofactors = [rng.randint(-3, 3) * rand_mono(ts, 2) for _ in range(4)]
        p = IntPoly.sum_of_products((rng.choice(parts), c) for c in cofactors)
        p = p + IntPoly.sum_of_products((part, sum(rng.sample(cofactors, 3))) for part in parts)
        images = {("L", 1): rng.choice([ls[1], ls[1] + ls[0] * ts[0], 2 - ts[1], -3]),
                  ("L", 2): rng.choice([ls[0], ls[0] - ls[2], 0, ts[0] * ts[0]]),
                  ("L", 3): rng.choice([ls[2], 5, ls[0] * ls[1] + ts[2], IntPoly.zero()])}
        images = dict(rng.sample(sorted(images.items()), rng.randint(1, 3)))
        assert p.substitute(images) == reference_substitute(p, images), (p, images)
    # a swap, and terms that cancel to zero after the swap
    l1, l2 = ls[:2]
    p = (l1 * l1 * l2 - l2 * l1) * (ts[0] - 2 * ts[1]) + l2 ** 4 * ts[2]
    swap = {("L", 1): l2, ("L", 2): l1}
    assert p.substitute(swap) == reference_substitute(p, swap) == \
        (l2 * l2 * l1 - l1 * l2) * (ts[0] - 2 * ts[1]) + l1 ** 4 * ts[2]
    q = (l1 * l2 - l2 * l2) * (ts[0] + ts[1] * ts[1])
    assert q.substitute({("L", 1): l2}).is_zero and reference_substitute(q, {("L", 1): l2}).is_zero
    # a product of images above the exponent guard raises in both
    x = IntPoly.var("x", 1, MAX_EXPONENT // 3)
    p = l1 ** 4 * ts[0] + l1 * ts[1]
    for substitute in (p.substitute, lambda im: reference_substitute(p, im)):
        with pytest.raises(LambdaOpsError, match=f"exponent above {MAX_EXPONENT}"):
            substitute({("L", 1): x})


def test_packed_kernel_near_the_exponent_bound():
    """Exponents up to MAX_EXPONENT are exact; a result above it raises
    instead of carrying into the next variable's field."""
    rng = random.Random(15)
    raised = exact = 0
    for _ in range(60):
        (a, ta), (b, tb) = twin_polys(rng, big=True), twin_polys(rng, big=True)
        # a monomial image keeps the substitution small: x1^e -> (-m)^e
        variables = sorted({(rng.choice(FAMILIES), rng.randint(1, 4)) for _ in range(2)})
        mono = {tuple((f, i, rng.randint(1, 2)) for f, i in variables): -1}
        m, tm = IntPoly(mono), TuplePoly(mono)
        for op in (lambda p, q, r: p * q, lambda p, q, r: p * q * q,
                   lambda p, q, r: p.substitute({("x", 1): r, ("L", 2): r})):
            t = op(ta, tb, tm)
            if max_exponent(t) > MAX_EXPONENT:
                with pytest.raises(LambdaOpsError, match=str(MAX_EXPONENT)):
                    op(a, b, m)
                raised += 1
            else:
                assert_same(op(a, b, m), t)
                exact += 1
    assert raised and exact
    x1, x2 = IntPoly.var("x", 1), IntPoly.var("x", 2)
    assert str(IntPoly.var("x", 1, 2**14 - 1) ** 2 * x1) == f"x1^{MAX_EXPONENT}"
    for overflow in (lambda: x1 ** (MAX_EXPONENT + 1),
                     lambda: IntPoly.var("x", 1, MAX_EXPONENT) * x1 * x2,
                     lambda: IntPoly.var("x", 1, MAX_EXPONENT + 1),
                     lambda: IntPoly({(("x", 1, MAX_EXPONENT + 1),): 1}),
                     lambda: IntPoly.var("x", 1, 2**14).substitute({("x", 1): x2 ** 2}),
                     lambda: (x1 ** MAX_EXPONENT * IntPoly.var("y", 1)).rename_family("y", "x")):
        with pytest.raises(LambdaOpsError, match=str(MAX_EXPONENT)):
            overflow()


def test_terms_is_a_fresh_copy_so_memoised_values_stay_intact():
    from lambdaops.models import get_model
    from lambdaops.symfun import newton_psi, universal_pk

    p2, psi3 = universal_pk(2), newton_psi(3)
    texts = str(p2), str(psi3)
    p2.terms.clear()
    psi3.terms[()] = 7
    assert (str(universal_pk(2)), str(newton_psi(3))) == texts
    model = get_model("split:2")
    a = model.samples(random.Random(5), 1)[0]
    series = model.lambda_series(a, 3)
    before = [str(s) for s in series]
    for s in series:
        s.terms.clear()
    assert [str(s) for s in model.lambda_series(a, 3)] == before
    with pytest.raises(AttributeError):
        p2.terms = {}
