import random
import subprocess
import sys

import pytest

from helpers import (
    reference_coadd_odd,
    reference_loop_polynomial,
    reference_odd_is_primitive,
    suspension_value,
    two_leg_terms,
)
from lambdaops.errors import NotAugmented, NotReduced, TruncationExceeded
from lambdaops.evenops import EvenOp, act, identity_op, op_is_primitive
from lambdaops.exterior import ExtElem
from lambdaops.kbu import KBUElem, gen, psi_kbu
from lambdaops.loopgrade import (
    GradedOp,
    OddOp,
    augmentation_view,
    check_looping_axioms,
    coadd_odd,
    compose_odd,
    lgen,
    loop_even,
    loop_odd,
    loop_polynomial,
    main_relations_check,
    odd_is_primitive,
)
from lambdaops.models import SplitModel
from lambdaops.setzz import IDENT, chi, const

N, W = 5, 16


def ev(pairs, trunc=N):
    return EvenOp.from_pairs(pairs, trunc, W)


def wedge(*indices, trunc=N):
    return OddOp(ExtElem({tuple(indices): 1}), trunc)


# -- exterior sign discipline ---------------------------------------------------


def test_anticommutativity_roundtrip():
    a, b = lgen(1, N), lgen(3, N)
    assert a * b == (-1) * (b * a)
    assert (a * a).is_zero
    rng = random.Random(2)
    for _ in range(20):
        idx = rng.sample(range(1, N + 1), 3)
        direct = lgen(idx[0], N) * lgen(idx[1], N) * lgen(idx[2], N)
        sorted_out = wedge(*sorted(idx))
        sign = _perm_sign(idx)
        assert direct == sign * sorted_out


def _perm_sign(seq):
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def test_truncation_drops_high_generators():
    assert lgen(7, N).is_zero
    assert wedge(2, 7).is_zero


# -- looping in both directions ----------------------------------------------------


def test_loop_even_examples():
    assert loop_even(ev([(const(1), gen(3, N))])) == lgen(3, N)
    assert loop_even(ev([(IDENT, KBUElem.from_int(1, N))])).is_zero
    assert loop_even(ev([(const(1), gen(1, N) * gen(2, N))])).is_zero
    assert loop_even(ev([(chi(3), gen(1, N))])).is_zero
    assert loop_even(ev([(chi(0), gen(2, N))])) == lgen(2, N)


def test_loop_even_requires_augmentation():
    with pytest.raises(NotAugmented):
        loop_even(ev([(const(1), KBUElem.from_int(1, N))]))


def test_loop_even_factors_through_indecomposables():
    rng = random.Random(14)
    base = ev([(const(1), gen(2, N))])
    ip_ops = [ev([(chi(d), gen(k, N))]) for d in (-1, 0, 2) for k in (1, 2, 3)]
    for _ in range(10):
        r, s = rng.choice(ip_ops), rng.choice(ip_ops)
        noisy = base + r * s
        assert loop_even(noisy) == loop_even(base)


def test_loop_odd_examples():
    assert loop_odd(lgen(1, N), W) == ev([(const(1), gen(1, N))])
    expected = ev([(const(1), 2 * gen(2, N) - gen(1, N) * gen(1, N))])
    assert loop_odd(lgen(2, N), W) == expected
    assert loop_odd(wedge(1, 2), W).is_zero


def test_loop_odd_requires_reduced():
    with pytest.raises(NotAugmented):
        loop_odd(OddOp(ExtElem.unit(1), N), W)


def test_loop_polynomial_is_signed_newton():
    # (-1)^(k-1) psi_k against P^L_k built from P_k at the sphere values
    for k in range(1, 13):
        assert loop_polynomial(k) == reference_loop_polynomial(k), k


def test_double_loop_lands_in_primitives():
    for p in range(1, N + 1):
        image = loop_odd(loop_even(ev([(const(1), gen(p, N))])), W)
        assert op_is_primitive(image)


# -- odd composition -----------------------------------------------------------------


def test_compose_odd_units():
    for k in range(1, N + 1):
        assert compose_odd(lgen(1, N), lgen(k, N)) == lgen(k, N)
        assert compose_odd(lgen(k, N), lgen(1, N)) == lgen(k, N)


def test_compose_odd_generator_pair():
    assert compose_odd(lgen(2, N), lgen(2, N)) == -1 * lgen(4, N)


def test_odd_gen_compose_is_the_linear_part_of_p_ij():
    from lambdaops.loopgrade import _odd_gen_compose
    from lambdaops.symfun import universal_pij

    for i in range(1, 25):
        for j in range(1, 24 // i + 1):
            want = ExtElem.linear(universal_pij(i, j).linear_coefficients("L"))
            assert _odd_gen_compose(i, j, 24) == want, (i, j)
    with pytest.raises(TruncationExceeded):
        _odd_gen_compose(5, 5, 24)


@pytest.mark.parametrize("mutation", [
    lambda i, j, gen: -gen,  # every sign flipped
    lambda i, j, gen: -gen if i % 2 == j % 2 == 0 else gen,  # the sign rule dropped
])
def test_looping_axiom_3_sees_a_wrong_odd_gen_compose(monkeypatch, mutation):
    import lambdaops.loopgrade as loopgrade

    odd_gen_compose = loopgrade._odd_gen_compose
    monkeypatch.setattr(loopgrade, "_odd_gen_compose",
                        lambda i, j, trunc: mutation(i, j, odd_gen_compose(i, j, trunc)))
    rep = check_looping_axioms(4, 8)
    assert not rep["axioms"]["3"]["pass"]
    assert all(rep["axioms"][a]["pass"] for a in ("1", "2", "4"))


def test_closed_forms_build_no_universal_polynomial():
    # loop of an odd operand, odd composition, upoly plin and the antipode
    # read closed forms, so a fresh process never fills P_k or P_{i,j}
    code = """
import contextlib, io
from lambdaops import cli, symfun
from lambdaops.kbu import antipode, gen
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(['loop', 'l4-2*l7+l14', '--trunc', '14']) == 0
    assert cli.main(['compose', 'l2*l4+l3', 'l2+l4-l6', '--trunc', '24']) == 0
    assert cli.main(['upoly', 'plin', '12']) == 0
assert antipode(gen(3, 12) * gen(9, 12)) != gen(3, 12) * gen(9, 12)
print(len(symfun._PK_CACHE), len(symfun._PIJ_CACHE))
"""
    got = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert got.returncode == 0, got.stderr
    assert got.stdout.split() == ["0", "0"]


def test_compose_odd_algebra_map_in_left():
    got = compose_odd(wedge(1, 2), lgen(1, N))
    assert got == wedge(1, 2)
    # scaled right operand: everything is additive on suspensions
    got2 = compose_odd(lgen(2, N), 3 * lgen(1, N))
    assert got2 == 3 * lgen(2, N)


def test_ext_terms_is_a_fresh_copy_so_memoised_values_stay_intact():
    from lambdaops import loopgrade

    x, y = lgen(2, N) + 3 * wedge(1, 2), lgen(1, N) - 2 * lgen(2, N)
    before = str(compose_odd(x, y))
    assert loopgrade._ODD_GEN_CACHE
    for cached in loopgrade._ODD_GEN_CACHE.values():
        cached.terms.clear()
    assert str(compose_odd(x, y)) == before
    with pytest.raises(AttributeError):
        x.ext.terms = {}


def test_compose_odd_guards():
    with pytest.raises(NotReduced):
        compose_odd(lgen(1, N), OddOp(ExtElem.unit(2), N))
    with pytest.raises(NotReduced):
        compose_odd(lgen(1, N), wedge(1, 2))
    with pytest.raises(TruncationExceeded):
        compose_odd(lgen(2, N), lgen(3, N))  # needs index 6 above N=5


def test_compose_odd_associative_for_small_generators():
    trunc = 8
    for i, j, k in ((1, 2, 3), (2, 2, 2), (2, 2, 1), (1, 4, 2), (2, 4, 1)):
        if i * j * k > trunc:
            continue
        lhs = compose_odd(compose_odd(lgen(i, trunc), lgen(j, trunc)), lgen(k, trunc))
        rhs = compose_odd(lgen(i, trunc), compose_odd(lgen(j, trunc), lgen(k, trunc)))
        assert lhs == rhs, (i, j, k)


def test_odd_primitivity():
    assert odd_is_primitive(lgen(3, N))
    assert not odd_is_primitive(wedge(1, 2))
    t = coadd_odd(wedge(1, 2))
    # the cross terms carry the Koszul sign: l1 (x) l2 and -(l2 (x) l1)
    assert t.terms[((0, 1), (1, 2))] == 1
    assert t.terms[((0, 2), (1, 1))] == -1


def test_odd_coproduct_matches_the_koszul_tensor_reference():
    """coadd_odd and odd_is_primitive against the (left, right) tensor with
    the Koszul sign, on random elements with unit parts, repeated indices
    and generators above the truncation."""
    rng = random.Random(29)
    primitive = 0
    for n in range(400):
        x = ExtElem.unit(rng.randint(-2, 2))
        for _ in range(rng.randint(0, 4)):
            mono = ExtElem.unit(rng.choice([-3, -1, 1, 2]))
            for _ in range(rng.randint(1, 3) if n % 3 else 1):
                mono = mono * ExtElem.generator(rng.randint(1, N + 1))
            x = x + mono
        op = OddOp(x, N)
        assert two_leg_terms(coadd_odd(op)) == reference_coadd_odd(op).terms, op
        assert odd_is_primitive(op) == reference_odd_is_primitive(op), op
        primitive += odd_is_primitive(op)
    assert 100 < primitive < 300


# -- suspension action -----------------------------------------------------------------


def test_suspension_value_matches_loop_odd_action():
    split = SplitModel(2)
    rng = random.Random(19)
    for q in split.samples(rng, 4):
        for k in range(1, 4):
            w = lgen(k, N)
            via_loop = act(loop_odd(w, W), split, q)
            # loop_odd lands on 1 (x) P^L_k(...), whose action at a reduced
            # argument agrees with the direct psi formula when eps(q) = 0
            reduced = split.sub(q, split.from_int(split.eps(q)))
            assert split.eq(suspension_value(w, split, reduced), act(loop_odd(w, W), split, q))


# -- axiom suites ------------------------------------------------------------------------


def test_looping_axioms_pass():
    rep = check_looping_axioms(4, 8)
    assert rep["pass"], rep
    assert set(rep["axioms"]) == {"1", "2", "3", "4"}
    assert rep["axioms"]["2"]["instances"] >= 50


def test_main_relations_pass():
    rep = main_relations_check(3, 4, 8)
    assert rep["pass"], rep


def test_main_relations_see_a_wrong_loop_polynomial(monkeypatch):
    # loop_odd reads loop_polynomial, so the second relation's expected side
    # must not: doubling it has to fail the check
    import lambdaops.loopgrade as loopgrade

    monkeypatch.setattr(loopgrade, "loop_polynomial", lambda k: 2 * loop_polynomial(k))
    assert not main_relations_check(3, 4, 8)["pass"]


def test_main_relations_examples():
    # chi_3 kills the loop since chi_3(0) = 0
    assert loop_even(ev([(chi(3), gen(1, N))])).is_zero
    # chi_0 survives and double-loops onto the linear polynomial
    got = loop_odd(loop_even(ev([(chi(0), gen(1, N))])), W)
    assert got == ev([(const(1), gen(1, N))])
    got2 = loop_odd(loop_even(ev([(const(1), gen(2, N))])), W)
    assert got2 == ev([(const(1), 2 * gen(2, N) - gen(1, N) * gen(1, N))])


# -- augmentation views ---------------------------------------------------------------------


def test_augmentation_view_even():
    view = augmentation_view("even", N, W)
    lam1 = ev([(const(1), gen(1, N))])
    lam2 = ev([(const(1), gen(2, N))])
    psi2 = ev([(const(1), psi_kbu(2, N))])
    assert view.in_ip(lam2)
    assert view.is_primitive(lam1)
    assert view.is_primitive(psi2)
    assert not view.is_primitive(lam2)
    assert len(view.primitives) == N
    assert len(view.indecomposables) == N


def test_augmentation_view_odd():
    view = augmentation_view("odd", N, W)
    assert view.in_ip(lgen(2, N))
    assert not view.in_ip(OddOp(ExtElem.unit(1), N))
    assert all(view.is_primitive(p) for p in view.primitives)


# -- graded wrapper ------------------------------------------------------------------------


def test_graded_identity_loops():
    iota0 = GradedOp.identity(0, N, W)
    iota1 = GradedOp.identity(1, N, W)
    looped = iota0.loop(W)
    assert looped.odd == iota1.odd
    back = iota1.loop(W)
    assert back.even == ev([(const(1), gen(1, N))])
