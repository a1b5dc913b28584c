import random
import subprocess
import sys

import pytest

from helpers import (
    fn_sum,
    from_obj,
    reference_comult_entry,
    reference_comult_gen,
    reference_compose_even,
    reference_from_pairs,
    reference_op_coadd,
    reference_op_comult,
    reference_op_is_primitive,
    pairwise_op_is_primitive,
)
from lambdaops import evenops
from lambdaops.errors import WindowExhausted
from lambdaops.evenops import (
    EvenOp,
    act,
    act_pair,
    coadd_entry,
    comult_entry,
    compose_even,
    compose_even_pair,
    divisor_pairs,
    identity_op,
    op_coadd,
    op_comult,
    op_counit,
    op_cozero,
    op_is_primitive,
)
from lambdaops.intpoly import IntPoly
from lambdaops.kbu import KBUElem, gen, psi_kbu
from lambdaops.models import register_models
from lambdaops.parser import OperandParser, parse_operand
from lambdaops.setzz import IDENT, chi, const

N, W = 4, 16
MODELS = register_models(validate=False)


def ev(pairs):
    return EvenOp.from_pairs(pairs, N, W)


def test_divisor_pairs():
    assert set(divisor_pairs(1, W)) == {(1, 1), (-1, -1)}
    assert set(divisor_pairs(6, W)) == {
        (1, 6), (2, 3), (3, 2), (6, 1), (-1, -6), (-2, -3), (-3, -2), (-6, -1)
    }
    zero_pairs = divisor_pairs(0, 2)
    assert (0, 0) in zero_pairs and (0, 2) in zero_pairs and (-1, 0) in zero_pairs
    assert len(zero_pairs) == len(set(zero_pairs)) == 9
    with pytest.raises(WindowExhausted):
        divisor_pairs(17, 16)


def test_normal_form_groups_by_indicator():
    r = ev([(const(2), gen(1, N)), (chi(0), gen(1, N))])
    assert r.component(0) == 3 * gen(1, N)
    assert r.component(5) == 2 * gen(1, N)


def test_bilinearity_under_normalisation():
    f, g = chi(1), const(2)
    x, y = gen(1, N), gen(2, N) + 1
    assert ev([(fn_sum(f, g), x)]) == ev([(f, x), (g, x)])
    assert ev([(f, x + y)]) == ev([(f, x), (f, y)])


def test_identity_normal_form():
    ident = identity_op(N, W)
    for d in range(-W, W + 1):
        assert ident.component(d) == gen(1, N) + d


def test_counits():
    ident = identity_op(N, W)
    assert op_cozero(ident) == 0
    assert op_counit(ident) == 1
    assert op_cozero(ev([(const(1), KBUElem.from_int(1, N))])) == 1
    assert op_counit(ev([(const(1), gen(2, N))])) == 0


def test_act_identity_is_identity():
    rng = random.Random(9)
    for name, m in MODELS.items():
        for alpha in m.samples(rng, 4):
            assert m.eq(act(identity_op(N, W), m, alpha), alpha), name


def test_act_projection_formulas():
    sphere = MODELS["sphere"]
    u = IntPoly.var("u", 1)
    r = ev([(chi(2), gen(1, N))])
    assert sphere.eq(act(r, sphere, sphere.add(u, sphere.from_int(2))), u)
    assert act(r, sphere, sphere.add(u, sphere.from_int(1))).is_zero
    # iota (x) 1 reads off the augmentation
    r2 = ev([(IDENT, KBUElem.from_int(1, N))])
    got = act(r2, sphere, sphere.add(u, sphere.from_int(3)))
    assert sphere.eq(got, sphere.from_int(3))
    # 1 (x) L2 on the reduced sphere class
    r3 = ev([(const(1), gen(2, N))])
    assert sphere.eq(act(r3, sphere, u), sphere.neg(u))


def test_act_window_guard():
    zz = MODELS["zz"]
    with pytest.raises(WindowExhausted):
        act(identity_op(N, W), zz, 17)


def test_compose_unit_laws():
    ident = identity_op(N, W)
    s = ev([(chi(2), gen(1, N)), (const(3), KBUElem.from_int(1, N))])
    assert compose_even(ident, s) == s
    assert compose_even(s, ident) == s


def test_compose_right_zero_collapses_to_augmentation():
    r = ev([(chi(0), gen(1, N) + 2)])
    zero = EvenOp({}, N, W)
    comp = compose_even(r, zero)
    for d in range(-W, W + 1):
        assert comp.component(d) == KBUElem.from_int(2, N)


def test_compose_generator_on_generator():
    r = ev([(const(1), gen(2, N))])
    s = ev([(const(1), gen(2, N))])
    comp = compose_even(r, s)
    expected = gen(1, N) * gen(3, N) - gen(4, N)
    for d in (-2, 0, 3):
        assert comp.component(d) == expected


def test_compose_window_guard():
    r = ev([(chi(0), gen(1, N))])
    s = ev([(chi(0), gen(1, N) + 20)])
    with pytest.raises(WindowExhausted):
        compose_even(r, s)
    # the first index in window order names the error
    s = ev([(const(1), gen(1, N)), (chi(-3), 17), (chi(2), 18)])
    with pytest.raises(WindowExhausted, match="augmentation 17 outside window 16"):
        compose_even(r, s)


def test_compose_pair_matches_componentwise():
    rng = random.Random(21)
    fns = [chi(0), chi(1), chi(-1), const(1), const(2)]
    xs = [gen(1, N), gen(2, N), gen(1, N) + 1, 2 * gen(1, N)]
    for _ in range(12):
        r = ev([(rng.choice(fns), rng.choice(xs)) for _ in range(rng.randint(1, 2))])
        e = rng.choice([-2, 0, 1, 3])
        y = rng.choice(xs)
        via_pair = compose_even_pair(r, chi(e), y)
        via_table = compose_even(r, ev([(chi(e), y)]))
        assert via_pair.component(e) == via_table.component(e)


def test_compose_pair_nonindicator_right_against_oracle():
    # composing against id (x) y exercises the full divisor sum with the
    # co-linear twists; the action oracle arbitrates
    zz = MODELS["zz"]
    r = ev([(chi(6), gen(2, N)), (chi(0), gen(1, N) + 1)])
    y = gen(1, N)
    comp = compose_even_pair(r, IDENT, y)
    s = ev([(IDENT, y)])
    for alpha in (-3, -1, 0, 1, 2, 3):
        lhs = act(comp, zz, alpha)
        rhs = act(r, zz, act(s, zz, alpha))
        assert lhs == rhs


def test_compose_action_oracle_randomized():
    rng = random.Random(33)
    fns = [chi(0), chi(1), chi(-1), chi(2), const(1), const(-1)]
    xs = [gen(1, N), gen(2, N), gen(1, N) + 1, gen(1, N) * gen(1, N), 2 * gen(2, N)]
    corpus = [
        ev([(rng.choice(fns), rng.choice(xs)) for _ in range(rng.randint(1, 2))])
        for _ in range(25)
    ]
    elems = {name: m.samples(random.Random(4), 3) for name, m in MODELS.items()}
    for _ in range(30):
        r, s = rng.choice(corpus), rng.choice(corpus)
        comp = compose_even(r, s)
        for name, m in MODELS.items():
            for alpha in elems[name]:
                assert m.eq(act(comp, m, alpha), act(r, m, act(s, m, alpha)))


def test_coadd_pairs_against_action():
    split = MODELS["split:2"]
    rng = random.Random(6)
    samples = split.samples(rng, 4)
    r = ev([(const(1), gen(2, N)), (chi(1), gen(1, N))])
    t = op_coadd(r)
    for a, b in zip(samples, samples[1:]):
        if abs(split.eps(a) + split.eps(b)) <= W:
            assert split.eq(t.act2(split, a, b), act(r, split, split.add(a, b)))


def test_comult_pairs_against_action():
    split = MODELS["split:2"]
    rng = random.Random(8)
    samples = split.samples(rng, 4)
    for r in (ev([(const(1), gen(2, N))]), ev([(chi(1), KBUElem.from_int(1, N))])):
        t = op_comult(r)
        for a, b in zip(samples, samples[1:]):
            if abs(split.eps(a) * split.eps(b)) <= W:
                assert split.eq(t.act2(split, a, b), act(r, split, split.mul(a, b)))


def test_comult_indicator_on_unit_classes():
    # chi_1 (x) 1 applied to a product of augmentation-one elements gives 1
    split = MODELS["split:2"]
    x1 = IntPoly.var("x", 1)
    alpha = x1  # eps = 1
    beta = split.add(split.mul(x1, x1), IntPoly.var("x", 2) - x1)  # eps = 1
    r = ev([(chi(1), KBUElem.from_int(1, N))])
    t = op_comult(r)
    assert split.eq(t.act2(split, alpha, beta), split.from_int(1))


def test_multiplicativity_on_split_model():
    # r(xy) = r[1](x) r[2](y) for r = 1 (x) L2
    split = MODELS["split:3"]
    rng = random.Random(10)
    r = ev([(const(1), gen(2, N))])
    t = op_comult(r)
    for a, b in zip(split.samples(rng, 3), split.samples(rng, 3)):
        if abs(split.eps(a) * split.eps(b)) <= W:
            assert split.eq(t.act2(split, a, b), act(r, split, split.mul(a, b)))


def test_even_primitivity():
    assert op_is_primitive(ev([(const(1), gen(1, N))]))
    assert op_is_primitive(ev([(const(1), psi_kbu(2, N))]))
    assert not op_is_primitive(ev([(const(1), gen(2, N))]))


# operations whose ring legs differ between the gamma(s) and gamma(rho)
# slots, so a swap of the two legs changes the co-multiplication
COPRODUCT_CORPUS = [
    "chi(2)@(L1*L2) + id@L3",
    "chi(-3)@L2 + chi(0)@(2*L3)",
    "const(-1)@L4",
    "chi(1)@(L1*L1 - L2) + const(2)@L1",
    "id@(L1*L2) + chi(-1)@3",
    # legs of negative or non-unit content, and squared factors
    "chi(0)@(-2*L1*L2 + 4*L3)",
    "const(-3)@(L1*L1)",
    "id@(-L2)",
]


def parse_op(text, trunc, window):
    return OperandParser([], trunc, window).promote_even(parse_operand(text, trunc, window)).payload


@pytest.mark.parametrize("trunc,window", [(3, 3), (4, 3), (4, 6), (5, 8)])
def test_coproducts_match_reference_constructions(trunc, window):
    for text in COPRODUCT_CORPUS:
        r = parse_op(text, trunc, window)
        assert op_comult(r) == reference_op_comult(r), text
        assert op_is_primitive(r) == reference_op_is_primitive(r), text
    # primitive ones too, with legs that differ between indices
    for text in ("identity", "id@1 + const(2)@(L1*L1 - 2*L2)", "const(3)@L1 - id@2"):
        r = parse_op(text, trunc, window)
        assert op_is_primitive(r) and reference_op_is_primitive(r), text


def test_comult_entry_outside_table_and_window():
    r = parse_op("chi(2)@(L1*L2) + const(1)@L3", 4, 3)
    tensor = op_comult(r)
    for rho in range(-5, 6):
        for s in range(-5, 6):
            entry = comult_entry(r, rho, s)
            if abs(rho) > 3 or abs(s) > 3 or rho * s not in r.table:
                assert entry.is_zero, (rho, s)
            assert entry == tensor.entries.get((rho, s), IntPoly.zero())
    # d = 0 is in the table, but (4, 0) leaves the window; d = 4 = 2 * 2 is not
    assert comult_entry(r, 4, 0).is_zero and not comult_entry(r, 3, 0).is_zero
    assert comult_entry(r, 2, 2).is_zero
    # an index outside the window still fails through divisor_pairs
    with pytest.raises(WindowExhausted):
        op_comult(EvenOp({5: gen(1, 4)}, 4, 3))


def test_comult_gen_matches_the_sum_rule():
    """The binomial combination of the fixed basis against the sum over
    i + j + m = k of P_i(T1; T2) gamma(s)(L_j)[T1] gamma(rho)(L_m)[T2]:
    every pair with |rho|, |s| <= 17 or +-10^6 up to k = 7, and the pairs of
    nine of those values from k = 8 to 10."""
    kappas = [*range(-17, 18), 10**6, -10**6]
    wide = [-10**6, -17, -3, -1, 0, 1, 2, 17, 10**6]
    for k in range(1, 11):
        for rho in kappas if k <= 7 else wide:
            for s in kappas if k <= 7 else wide:
                assert evenops._comult_gen(rho, s, k) == reference_comult_gen(rho, s, k), (rho, s, k)


def test_comult_entry_matches_the_four_leg_expansion():
    for k in range(1, 8):
        r = EvenOp.from_pairs([(const(1), gen(k, 7))], 7, 36)
        for rho in range(-6, 7):
            for s in range(-6, 7):
                assert comult_entry(r, rho, s) == reference_comult_entry(r, rho, s), (k, rho, s)


def test_a_wrong_t2_linear_comult_gen_fails_looping_and_compose(monkeypatch):
    # axiom 2 reads only the T2-linear part of the entries (eps, 0), and the
    # action oracle of `check compose` reads whole entries: the T2-linear
    # coefficient of T1_1^2 T2_2 (1, from P_2) doubled in every image of L2
    # fails both
    from lambdaops.checks import run_suite

    right = evenops._comult_gen
    mono = IntPoly.var("T1", 1, 2) * IntPoly.var("T2", 2)

    def wrong(rho, s, k):
        image = right(rho, s, k)
        return image + image.coefficient(mono) * mono if k == 2 else image

    monkeypatch.setattr(evenops, "_comult_gen", wrong)
    failed = {name: [p["id"] for p in run_suite(name, trunc, 16)["properties"] if not p["pass"]]
              for name, trunc in (("looping", 5), ("compose", 6))}
    assert failed == {"looping": ["axiom-2"], "compose": ["coproducts-vs-action"]}


# product legs, negative scalars and indicators at both ends of the window
def comult_oracle_ops(trunc, window):
    return [f"chi({window})@(L1*L2) + const(-2)@L3",
            f"chi(-{window})@(2*L1*L1 - L2) + id@L{trunc}",
            "const(-1)@(L2*L3) + chi(0)@L1 + chi(1)@(-L1)",
            f"id@(L1*L{trunc - 1}) + const(3)@L2",
            "const(2)@(L1*L1*L2) - chi(2)@L3"]


def comult_oracle_mismatches(trunc, window):
    """The ops whose op_comult entries differ from the nonzero comult_entry
    over every pair of indices in the window, and the number of entries."""
    mismatches, count = [], 0
    for text in comult_oracle_ops(trunc, window):
        r = parse_op(text, trunc, window)
        expected = {(rho, s): comult_entry(r, rho, s)
                    for rho in range(-window, window + 1) for s in range(-window, window + 1)}
        expected = {key: poly for key, poly in expected.items() if not poly.is_zero}
        count += len(expected)
        if op_comult(r).entries != expected:
            mismatches.append(text)
    return mismatches, count


COMULT_ORACLE_SIZES = [(5, 3), (6, 9), (7, 16)]


@pytest.mark.parametrize("trunc,window", COMULT_ORACLE_SIZES)
def test_op_comult_matches_comult_entry_at_every_pair(trunc, window):
    assert comult_oracle_mismatches(trunc, window)[0] == []


def test_a_leg_exchange_that_keeps_t1_1_fails_the_comult_oracle(monkeypatch):
    right = IntPoly.rename_all
    swap = {"T1": "T2", "T2": "T1"}

    def wrong(polys, names):
        if names != swap:
            return right(polys, names)
        images = {(f, i): IntPoly.var(swap[f], i) for p in polys for f in swap
                  for i in p.indices(f) if (f, i) != ("T1", 1)}
        return [p.substitute(images) for p in polys]

    monkeypatch.setattr(IntPoly, "rename_all", staticmethod(wrong))
    for trunc, window in COMULT_ORACLE_SIZES:
        mismatches, count = comult_oracle_mismatches(trunc, window)
        assert mismatches == comult_oracle_ops(trunc, window) and count


def test_op_comult_builds_only_the_entries_with_rho_at_most_s():
    code = ("import contextlib, io\n"
            "from lambdaops import cli, evenops\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['coprod', 'mul', 'const(1)@L5', '--window', '16']) == 0\n"
            "print(evenops._comult_gen.cache_info().currsize)\n")
    got = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert got.returncode == 0, got.stderr
    pairs = {(rho, s) for d in range(-16, 17) for rho, s in divisor_pairs(d, 16) if rho <= s}
    assert int(got.stdout) == len(pairs)


def test_coadd_entry_outside_table_and_window():
    r = parse_op("chi(2)@(L1*L2) + const(1)@L3", 4, 3)
    tensor = op_coadd(r)
    for i in range(-5, 6):
        for j in range(-5, 6):
            assert coadd_entry(r, i, j) == tensor.entries.get((i, j), IntPoly.zero()), (i, j)


def test_act_pair_checks_window_before_entry():
    asked = []
    with pytest.raises(WindowExhausted, match=r"augmentations \(17, 0\) outside window 16"):
        act_pair(lambda ea, eb: asked.append((ea, eb)), MODELS["zz"], 17, 0, W)
    assert not asked


def test_tensor_window_guard():
    r = ev([(const(1), gen(1, N))])
    t = op_coadd(r)
    zz = MODELS["zz"]
    with pytest.raises(WindowExhausted):
        t.act2(zz, 17, 0)


def test_serialisation_shape():
    r = ev([(chi(1), gen(1, N))])
    obj = r.to_obj()
    assert obj["summands"] == [["chi(1)", from_obj([{"mono": [["L", 1, 1]], "coeff": "1"}])]]
    assert obj["trunc"] == N and obj["window"] == W


# -- work shared between equal and proportional ring legs ------------------------

SCALARS = [1, -1, 2, 3]


def shared_leg_pairs(rng, trunc):
    """Summands whose legs repeat or are integer multiples of each other:
    const(c)@x, id@x and indicator sums, with c in {1, -1, 2, 3}."""
    legs = [gen(1, trunc), gen(2, trunc), gen(1, trunc) * gen(2, trunc) - gen(3, trunc),
            gen(2, trunc) + 1, gen(1, trunc) - 2]
    base = rng.choice(legs)
    pairs = []
    for _ in range(rng.randint(1, 3)):
        x = rng.choice(SCALARS) * (base if rng.random() < 0.7 else rng.choice(legs))
        kind = rng.randrange(3)
        if kind == 0:
            f = const(rng.choice(SCALARS))
        elif kind == 1:
            f, x = IDENT, x.reduced()
        else:
            f = fn_sum(*(chi(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))))
        pairs.append((f, x))
    return pairs


def outcome(fn, *args):
    """The result, or the text of the WindowExhausted it raises."""
    try:
        return fn(*args)
    except WindowExhausted as exc:
        return f"WindowExhausted: {exc}"


@pytest.mark.parametrize("window", [3, 8])
@pytest.mark.parametrize("trunc", [2, 3, 5])
def test_shared_leg_paths_match_per_indicator_constructions(trunc, window):
    rng = random.Random(100 * trunc + window)
    ops = []
    for _ in range(8):
        pairs = shared_leg_pairs(rng, trunc)
        r = EvenOp.from_pairs(pairs, trunc, window)
        assert r == reference_from_pairs(pairs, trunc, window), pairs
        ops.append(r)
    # a right component whose augmentation leaves the window, after a shared one
    ops.append(EvenOp.from_pairs(
        [(const(1), gen(1, trunc)), (chi(2), KBUElem.from_int(window + 2, trunc))],
        trunc, window))
    for r in ops:
        assert op_coadd(r) == reference_op_coadd(r), r
        assert op_is_primitive(r) == reference_op_is_primitive(r), r
        expected = {
            (rho, s): reference_comult_entry(r, rho, s)
            for d in r.table for rho, s in divisor_pairs(d, window)
        }
        assert op_comult(r) == evenops.EvenOpTensor(expected, trunc, window), r
        for rho, s in [(1, 1), (-1, 2), (0, 3), (2, 0), (window + 1, 0)]:
            assert comult_entry(r, rho, s) == reference_comult_entry(r, rho, s), (r, rho, s)
    for r, s in zip(ops, ops[1:] + ops[:1]):
        assert outcome(compose_even, r, s) == outcome(reference_compose_even, r, s), (r, s)
    assert outcome(compose_even, ops[0], ops[-1]) == (
        f"WindowExhausted: augmentation {window + 2} outside window {window}")


@pytest.mark.parametrize("window", [2, 5, 16])
@pytest.mark.parametrize("trunc", [2, 4])
def test_op_is_primitive_matches_the_pairwise_loop(trunc, window):
    """Sums of const(c)@x over primitive legs x (L1, psi_2, psi_3), which are
    primitive, and operations with an indicator, id or a non-primitive leg,
    which are not; legs are shared across indices or differ between them."""
    rng = random.Random(7 * trunc + window)
    primitive = [gen(1, trunc), psi_kbu(2, trunc), psi_kbu(3, trunc)]
    other = [gen(2, trunc), gen(1, trunc) * gen(1, trunc), gen(1, trunc) + 1]
    verdicts = []
    for n in range(12):
        pairs = []
        for _ in range(rng.randint(1, 3)):
            x = rng.choice(SCALARS) * rng.choice(primitive)
            pairs.append((const(rng.choice(SCALARS)), x))
        if n % 2:
            f = rng.choice([IDENT, fn_sum(chi(rng.randint(-3, 3)), chi(rng.randint(-3, 3)))])
            pairs.append((f, rng.choice(primitive + other)))
        r = EvenOp.from_pairs(pairs, trunc, window)
        verdicts.append(op_is_primitive(r))
        assert verdicts[-1] == pairwise_op_is_primitive(r), pairs
    assert True in verdicts and False in verdicts


def counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_compose_even_composes_each_distinct_right_component_once(monkeypatch):
    r = ev([(chi(0), gen(2, N)), (const(1), gen(1, N))])
    s = ev([(const(1), gen(1, N))])
    calls = counting(monkeypatch, evenops, "compose_kbu")
    assert compose_even(r, s) == reference_compose_even(r, s)
    assert len(calls) == 1


def test_op_coadd_coadds_each_distinct_leg_once(monkeypatch):
    calls = counting(monkeypatch, evenops, "coadd")
    op_coadd(ev([(const(2), gen(3, N))]))
    assert len(calls) == 1


def test_from_pairs_scales_once_per_function_value(monkeypatch):
    calls = []
    scale = KBUElem.__rmul__

    def counted(x, v):
        calls.append(v)
        return scale(x, v)

    monkeypatch.setattr(KBUElem, "__rmul__", counted)
    r = ev([(const(2), gen(1, N))])
    assert calls == [2] and len(r.table) == 2 * W + 1


def test_from_pairs_builds_one_window_per_call(monkeypatch):
    windows = []
    make = evenops.Window

    def counted(w):
        windows.append(w)
        return make(w)

    monkeypatch.setattr(evenops, "Window", counted)
    pairs = [(const(2), gen(1, N)), (chi(1), gen(2, N)), (IDENT, gen(3, N))]
    assert ev(pairs) == reference_from_pairs(pairs, N, W) and windows == [W]
    # the window is checked even when there are no pairs
    with pytest.raises(ValueError, match="window must be >= 1"):
        EvenOp.from_pairs([], N, 0)
