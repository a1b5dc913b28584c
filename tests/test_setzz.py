import copy
import pickle
import random

import pytest

from helpers import fn_equal_on_window, fn_prod, fn_sum
from lambdaops.errors import InvalidFamily
from lambdaops.setzz import (
    COIFamily,
    FnChi,
    FnCompose,
    IDENT,
    IntegerRing,
    ModRing,
    Window,
    chi,
    coi_add,
    coi_mul,
    const,
    fn_coadd,
    fn_compose,
    fn_comult,
    fn_counit,
    fn_cozero,
    fn_window_normalise,
    fn_window_pairs,
    window_table,
)


# -- evaluation ----------------------------------------------------------------


def test_eval_examples():
    assert chi(2).ev(2) == 1 and chi(2).ev(3) == 0
    assert fn_compose(IDENT, IDENT).ev(5) == 5
    assert fn_compose(chi(1), fn_prod(IDENT, IDENT)).ev(-1) == 1


def test_compose_identity_laws():
    f = fn_sum(chi(0), fn_prod(const(2), IDENT))
    for n in range(-5, 6):
        assert fn_compose(IDENT, f).ev(n) == f.ev(n)
        assert fn_compose(f, IDENT).ev(n) == f.ev(n)


def test_compose_chi_const():
    assert fn_compose(chi(3), const(3)).ev(99) == 1
    assert fn_compose(chi(3), const(2)).ev(99) == 0


def test_compose_associative_pointwise():
    f, g, h = chi(1), fn_prod(IDENT, IDENT), fn_sum(IDENT, const(-1))
    a = fn_compose(f, fn_compose(g, h))
    b = fn_compose(fn_compose(f, g), h)
    assert all(a.ev(n) == b.ev(n) for n in range(-8, 9))


# -- windows --------------------------------------------------------------------


def test_window_normalise_examples():
    w = Window(2)
    table = window_table(IDENT, w)
    assert table == {-2: -2, -1: -1, 1: 1, 2: 2}
    norm = fn_window_normalise(IDENT, w)
    assert fn_equal_on_window(norm, IDENT, w)
    assert fn_window_pairs(const(1), Window(1)) == [(-1, 1), (0, 1), (1, 1)]


def test_window_normalise_idempotent():
    w = Window(3)
    f = fn_sum(chi(2), fn_prod(const(3), IDENT))
    once = fn_window_normalise(f, w)
    twice = fn_window_normalise(once, w)
    assert window_table(once, w) == window_table(twice, w)


def test_window_validation():
    with pytest.raises(ValueError):
        Window(0)


def test_trees_and_windows_are_immutable_values():
    f = fn_sum(chi(-1), fn_prod(const(2), IDENT))
    assert f == fn_sum(chi(-1), fn_prod(const(2), IDENT))
    assert hash(f) == hash(fn_sum(chi(-1), fn_prod(const(2), IDENT)))
    assert chi(2) != const(2) and fn_sum(IDENT) != fn_prod(IDENT)
    assert len({chi(1), chi(1), const(1), IDENT, FnCompose(IDENT, IDENT)}) == 4
    assert Window(3) == Window(3) != Window(4)
    assert repr(FnCompose(FnChi(1), IDENT)) == "FnCompose(outer=FnChi(d=1), inner=FnId())"
    for value, name in ((chi(1), "d"), (Window(2), "W")):
        with pytest.raises(AttributeError):
            setattr(value, name, 5)
    assert pickle.loads(pickle.dumps(f)) == f and copy.deepcopy(Window(2)) == Window(2)


def test_serialised_prefix_form():
    f = fn_sum(chi(-1), fn_prod(const(2), IDENT))
    assert f.serialise() == "(sum chi(-1) (prod const(2) id))"
    g = FnCompose(FnChi(1), IDENT)
    assert g.serialise() == "(comp chi(1) id)"


# -- coproducts -------------------------------------------------------------------


def test_coadd_exactness_contract():
    w = Window(4)
    for f in (chi(0), chi(3), const(2), IDENT, fn_prod(IDENT, IDENT)):
        t = fn_coadd(f, w)
        for a in w.indices():
            for b in w.indices():
                assert t.eval_at(a, b) == f.ev(a + b)


def test_coadd_chi_zero_pair():
    t = fn_coadd(chi(0), Window(2))
    assert t.eval_at(1, -1) == 1
    assert t.eval_at(1, 1) == 0


def test_coadd_chi_support():
    w = Window(3)
    t = fn_coadd(chi(2), w)
    assert t.support() == [(i, 2 - i) for i in range(-1, 4)]


def test_comult_exactness_contract():
    w = Window(4)
    for f in (chi(1), chi(4), IDENT, const(3)):
        t = fn_comult(f, w)
        for a in w.indices():
            for b in w.indices():
                assert t.eval_at(a, b) == f.ev(a * b)


def test_comult_divisor_support():
    w = Window(5)
    t = fn_comult(chi(4), w)
    assert t.support() == sorted(
        (i, j) for i in w.indices() for j in w.indices() if i * j == 4
    )


def test_dual_consistency_with_deltas():
    # pairing the comultiplication against two delta families realises
    # evaluation at the product of the indices
    w = Window(4)
    ring = IntegerRing()
    for d in (-4, 0, 2, 4):
        t = fn_comult(chi(d), w)
        for c in (-2, 1, 2):
            for e in (-1, 2):
                assert t.eval_at(c, e) == chi(d).ev(c * e)


def test_counit_values():
    assert fn_cozero(chi(0)) == 1 and fn_counit(chi(0)) == 0
    assert fn_cozero(IDENT) == 0 and fn_counit(IDENT) == 1
    assert fn_cozero(const(7)) == 7 and fn_counit(const(7)) == 7


def test_coproduct_coassociativity_on_window():
    # both bracketings agree on triples whose intermediate sums/products stay
    # inside the window
    w = Window(6)
    for f in (chi(2), IDENT, const(3)):
        tadd = fn_coadd(f, w)
        tmul = fn_comult(f, w)
        for a in range(-2, 3):
            for b in range(-2, 3):
                for c in range(-2, 3):
                    if abs(a + b) <= 6 and abs(b + c) <= 6:
                        left = tadd.eval_at(a + b, c)
                        right = tadd.eval_at(a, b + c)
                        assert left == right == f.ev(a + b + c)
                    if abs(a * b) <= 6 and abs(b * c) <= 6:
                        left = tmul.eval_at(a * b, c)
                        right = tmul.eval_at(a, b * c)
                        assert left == right == f.ev(a * b * c)


# -- orthogonal idempotent families --------------------------------------------------


def random_mod6_family(rng):
    # idempotents of Z/6 are 0, 1, 3, 4; decompositions of 1: {1} or {3, 4}
    if rng.random() < 0.4:
        return COIFamily(ModRing(6), {rng.randint(-6, 6): 1})
    d1 = rng.randint(-6, 6)
    d2 = rng.randint(-6, 6)
    while d2 == d1:
        d2 = rng.randint(-6, 6)
    return COIFamily(ModRing(6), {d1: 3, d2: 4})


def test_coi_construction_guards():
    ring = IntegerRing()
    with pytest.raises(InvalidFamily):
        COIFamily(ring, {0: 2})
    with pytest.raises(InvalidFamily):
        COIFamily(ring, {0: 1, 1: 1})
    mod6 = ModRing(6)
    with pytest.raises(InvalidFamily):
        COIFamily(mod6, {0: 3, 1: 3})
    COIFamily(mod6, {0: 3, 5: 4})


def test_coi_identities():
    mod6 = ModRing(6)
    zero = COIFamily.delta(mod6, 0)
    one_f = COIFamily.delta(mod6, 1)
    fam = COIFamily(mod6, {2: 3, -1: 4})
    assert coi_add(fam, zero) == fam
    assert coi_mul(fam, one_f) == fam


def test_coi_ring_laws_mod6():
    rng = random.Random(3)
    fams = [random_mod6_family(rng) for _ in range(12)]
    for a in fams[:6]:
        for b in fams[6:]:
            assert coi_add(a, b) == coi_add(b, a)
            assert coi_mul(a, b) == coi_mul(b, a)
    for a, b, c in zip(fams, fams[4:], fams[8:]):
        assert coi_add(coi_add(a, b), c) == coi_add(a, coi_add(b, c))
        assert coi_mul(coi_mul(a, b), c) == coi_mul(a, coi_mul(b, c))
        lhs = coi_mul(a, coi_add(b, c))
        rhs = coi_add(coi_mul(a, b), coi_mul(a, c))
        assert lhs == rhs


def test_coi_results_pass_the_public_constructor():
    """`delta`, `coi_add` and `coi_mul` build their families without the
    checks of `COIFamily.__init__`; over Z, Z/6 and Z/30, with families of up
    to three entries, each result still passes them and holds no zero entry."""
    rng = random.Random(23)
    # the orthogonal idempotents of Z/30 that lift 1 mod one prime of 30
    primes = {2: 15, 3: 10, 5: 6}

    def mod30_family():
        blocks: dict[int, int] = {}
        for e in primes.values():
            d = rng.choice(rng.sample(range(-5, 6), 3))
            blocks[d] = (blocks.get(d, 0) + e) % 30
        return COIFamily(ModRing(30), blocks)

    samples = [
        [COIFamily.delta(IntegerRing(), rng.randint(-6, 6)) for _ in range(6)],
        [random_mod6_family(rng) for _ in range(6)],
        [mod30_family() for _ in range(6)],
    ]
    assert any(len(f.entries) == 3 for f in samples[2])
    for fams in samples:
        ring = fams[0].ring
        results = [COIFamily.delta(ring, d) for d in (-2, 0, 3)]
        results += [op(a, b) for a in fams for b in fams for op in (coi_add, coi_mul)]
        for r in results:
            assert ring.zero() not in r.entries.values()
            assert COIFamily(ring, r.entries) == r


def test_coi_hash_follows_equality():
    ring = IntegerRing()
    total = coi_add(COIFamily.delta(ring, 1), COIFamily.delta(ring, 2))
    assert total == COIFamily.delta(ring, 3)
    assert hash(total) == hash(COIFamily.delta(ring, 3))
    assert len({total, COIFamily.delta(ring, 3), COIFamily.delta(IntegerRing(), 3)}) == 1
    # equal entries in another order, and equal families from the ring laws
    mod6 = ModRing(6)
    assert hash(COIFamily(mod6, {2: 3, -1: 4})) == hash(COIFamily(mod6, {-1: 4, 2: 3}))
    rng = random.Random(4)
    fams = [random_mod6_family(rng) for _ in range(12)]
    for a, b in zip(fams, fams[6:]):
        assert hash(coi_mul(a, b)) == hash(coi_mul(b, a))
        assert hash(coi_add(a, b)) == hash(coi_add(b, a))


def test_coi_collapse_over_integral_domain():
    ring = IntegerRing()
    for c in (-3, 0, 2):
        for d in (-1, 4):
            assert coi_add(COIFamily.delta(ring, c), COIFamily.delta(ring, d)) == \
                COIFamily.delta(ring, c + d)
            assert coi_mul(COIFamily.delta(ring, c), COIFamily.delta(ring, d)) == \
                COIFamily.delta(ring, c * d)
    with pytest.raises(InvalidFamily):
        COIFamily(ring, {0: 1, 3: 1})
