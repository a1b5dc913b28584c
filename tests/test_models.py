import random
import subprocess
import sys
from itertools import count

import pytest

from helpers import binom, reference_evaluate, reference_lam, un_one
from lambdaops.checks import _operation_corpus
from lambdaops.errors import IndexOutOfRange, LambdaOpsError, RankUnderflow, RegistrationFailure
from lambdaops.evenops import EvenOp, act, compose_even
from lambdaops.intpoly import IntPoly
from lambdaops.kbu import KBUElem, gen
from lambdaops.models import (
    COIModel,
    IntegerModel,
    LambdaRingModel,
    LineClassModel,
    ProjectiveModel,
    SplitModel,
    bun_beta,
    bun_restrict,
    get_model,
    lambdak_from_beta,
    lk_from_mu,
    model_psi,
    poly_eval_in_model,
    register_models,
    un_mu,
    un_restrict,
    validate_model,
)
from lambdaops.setzz import const
from lambdaops.symfun import _newton_step, universal_pij, universal_pk


def test_registration_suite_passes():
    models = register_models()
    assert set(models) == {"zz", "sphere", "cp:2", "cp:3", "split:2", "split:3", "coi"}


def test_validated_registration_keeps_no_point_records():
    # validation acts at sample elements that nothing reads again
    for name, model in register_models(validate=True).items():
        assert model._points == {}, name


def test_integer_model():
    zz = IntegerModel()
    assert zz.lam(2, 3) == 3
    assert zz.lam(3, -1) == -1
    assert zz.eps(7) == 7


def test_sphere_suspension_fact():
    sphere = ProjectiveModel(1, name="sphere")
    u = IntPoly.var("u", 1)
    for i in range(1, 6):
        assert sphere.lam(i, u) == (-1) ** (i - 1) * u


def test_split_line_facts():
    split = SplitModel(2)
    x1, x2 = IntPoly.var("x", 1), IntPoly.var("x", 2)
    assert split.lam(2, x1 + x2) == x1 * x2
    assert split.lam(2, x1) .is_zero
    assert split.eps(x1 * x2 + 2) == 3


def test_projective_reduces_powers():
    cp2 = ProjectiveModel(2)
    u = IntPoly.var("u", 1)
    cube = cp2.mul(cp2.mul(u, u), u)
    assert cube.is_zero
    # rank-one line class xi = 1 + u has lambda_t = 1 + xi t
    xi = cp2.add(u, cp2.from_int(1))
    assert cp2.lam(1, xi) == xi
    assert cp2.lam(2, xi).is_zero


def test_coi_model_arithmetic():
    coi = COIModel()
    a, b = coi.from_int(3), coi.from_int(-2)
    assert coi.eps(coi.add(a, b)) == 1
    assert coi.eps(coi.mul(a, b)) == -6
    assert coi.eps(coi.lam(2, a)) == 3


def test_model_psi_newton_consistency():
    split = SplitModel(2)
    rng = random.Random(5)
    for a in split.samples(rng, 5):
        for k in (1, 2, 3):
            # Newton recursion over lambda values against the line-class route
            lams = [split.from_int(1)] + [split.lam(i, a) for i in range(1, k + 1)]
            acc = split.from_int(0)
            psis = [None]
            for n in range(1, k + 1):
                s = split.from_int(0)
                for i in range(1, n):
                    t = split.mul(lams[i], psis[n - i])
                    s = split.add(s, t if i % 2 == 1 else split.neg(t))
                last = split.mul(split.from_int(n), lams[n])
                psis.append(split.add(s, last if n % 2 == 1 else split.neg(last)))
            assert split.eq(model_psi(split, k, a), psis[k])


def test_adams_operations_fix_every_integer():
    # the default psi, Newton's psi_k at the model's lambda values, against
    # an oracle of its own: psi^k(n) = n for every integer n
    for model in (IntegerModel(), COIModel()):
        for a in model.samples(random.Random(3), 8) + [model.from_int(n) for n in (-5, 0, 7)]:
            for k in range(1, 7):
                assert model.eq(model_psi(model, k, a), a), (model.name, model.show(a), k)


def test_validate_model_catches_broken_lambda():
    class Broken(IntegerModel):
        name = "broken"

        def lam(self, k, a):
            if k == 2:
                return a * a  # wrong on purpose
            return super().lam(k, a)

    with pytest.raises(RegistrationFailure):
        validate_model(Broken())


def _series_models():
    extra = [ProjectiveModel(m) for m in (1, 2, 3, 5, 7)] + [SplitModel(m) for m in (1, 2, 3, 4)]
    return list(register_models(validate=False).values()) + extra


def test_lambda_series_matches_reference():
    rng = random.Random(19)
    for model in _series_models():
        for a in model.samples(rng, 4):
            for n in range(7):
                got = model.lambda_series(a, n)
                assert len(got) == n + 1
                for k, value in enumerate(got):
                    assert model.eq(value, reference_lam(model, k, a)), (model.name, k)


def test_lambda_series_memo_prefix_and_regrowth():
    rng = random.Random(20)
    for model in _series_models():
        for a in model.samples(rng, 3):
            want = [reference_lam(model, k, a) for k in range(8)]
            for n in (5, 2, 7):
                got = model.lambda_series(a, n)
                assert len(got) == n + 1
                assert all(model.eq(x, y) for x, y in zip(got, want)), (model.name, n)
                assert model.eq(model.lam(n, a), want[n])
            # a caller that mutates its list changes no later answer
            got[1] = model.from_int(99)
            model.lambda_series(a, 3)[2] = model.from_int(99)
            again = model.lambda_series(a, 7)
            assert all(model.eq(x, y) for x, y in zip(again, want)), model.name


def test_series_grown_in_place_matches_the_line_product():
    # products, sums and act outputs of samples, their series grown in place
    # to n <= 10 in an order that revisits shorter prefixes
    rng = random.Random(21)
    ops = _operation_corpus(8, 16, rng, 3)
    for model in _series_models():
        a, b, c = model.samples(rng, 3)
        elems = [model.mul(a, b), model.add(b, c), model.mul(c, model.add(a, c))]
        elems += [act(r, model, x) for r, x in zip(ops, (a, b, c))]
        for x in elems:
            series = model.point(x).series
            want = [reference_lam(model, k, x) for k in range(11)]
            for n in (2, 9, 4, 10):
                got = model.lambda_series(x, n)
                assert all(model.eq(v, w) for v, w in zip(got, want[:n + 1])), (model.name, n)
            assert model.point(x).series is series and len(series) == 11, model.name


def test_adams_values_match_the_newton_evaluation():
    # psi^1..psi^10 of the line-class models, asked in ascending, descending
    # and shuffled order, against Newton's psi_k at the lambda series (the
    # base-class psi)
    rng = random.Random(22)
    for model in _series_models():
        if not isinstance(model, LineClassModel):
            continue
        for a in model.samples(rng, 3):
            want = [LambdaRingModel.psi(model, k, a) for k in range(1, 11)]
            for order in (range(1, 11), range(10, 0, -1), rng.sample(range(1, 11), 10)):
                model._points.clear()
                for k in order:
                    assert model.eq(model.psi(k, a), want[k - 1]), (model.name, k)


def test_adams_operations_are_ring_maps():
    # psi^k(a + b) = psi^k(a) + psi^k(b), psi^k(ab) = psi^k(a) psi^k(b), and
    # psi^j(psi^k(a)) = psi^(jk)(a) for j * k <= 12
    rng = random.Random(23)
    models = [ProjectiveModel(m) for m in range(1, 8)] + [SplitModel(m) for m in range(1, 5)]
    for model in models:
        elems = model.samples(rng, 4)
        for a, b in zip(elems, elems[1:]):
            for k in range(1, 13):
                psi_a, psi_b = model.psi(k, a), model.psi(k, b)
                assert model.eq(model.psi(k, model.add(a, b)), model.add(psi_a, psi_b)), \
                    (model.name, k)
                assert model.eq(model.psi(k, model.mul(a, b)), model.mul(psi_a, psi_b)), \
                    (model.name, k)
        for a in elems:
            for k in range(1, 13):
                psi_a = model.psi(k, a)
                for j in range(1, 12 // k + 1):
                    assert model.eq(model.psi(j, psi_a), model.psi(j * k, a)), \
                        (model.name, j, k)


def test_split_psi_registers_only_the_variables_of_its_element():
    # a variable is built only once it is known to be in range: neither the
    # series nor `act` on split:64 registers x3..x64 for an element in x1, x2
    script = "\n".join([
        "import contextlib, io",
        "from lambdaops import cli, intpoly",
        "from lambdaops.intpoly import IntPoly",
        "from lambdaops.models import SplitModel",
        "shown = lambda: print(sorted(i for f, i in intpoly._SHIFTS if f == 'x'))",
        "x1, x2 = IntPoly.var('x', 1), IntPoly.var('x', 2)",
        "SplitModel(64).lambda_series(x1 * x2 + x2, 4)",
        "shown()",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.main(['act', '--model', 'split:64', 'const(1)@L4', 'x1*x2+x2']) == 0",
        "shown()",
    ])
    got = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert got.returncode == 0 and got.stdout == "[1, 2]\n[1, 2]\n", got.stderr


def test_dividing_before_reducing_fails():
    class DivideFirst(ProjectiveModel):
        def _lambdas(self, a):  # LineClassModel._lambdas with the two steps swapped
            series, signed = [IntPoly.one()], []
            yield series[0]
            for k in count(1):
                psi = self.psi(k, a)
                signed.append(psi if k % 2 else -psi)
                acc = IntPoly.sum_of_products(zip(reversed(signed), series))
                series.append(self._reduce(acc.div_exact(k)))
                yield series[k]

    validate_model(ProjectiveModel(3))
    with pytest.raises(ValueError, match="not divisible"):
        validate_model(DivideFirst(3))


def test_a_wrong_adams_power_fails_validation():
    for base, m in ((ProjectiveModel, 3), (SplitModel, 2)):
        class FlippedPsi2(base):
            def psi(self, k, a):
                psi = super().psi(k, a)
                return -psi if k == 2 else psi

        validate_model(base(m))
        with pytest.raises(RegistrationFailure):
            validate_model(FlippedPsi2(m))


def test_a_wrong_adams_image_fails_validation():
    class LineNotReduced(ProjectiveModel):  # u -> (1 + u)^k, the -1 dropped
        def _adams_image(self, k, a):
            return {("u", 1): super()._adams_image(k, a)[("u", 1)] + 1}

    class OnePowerTooMany(SplitModel):  # x_i -> x_i^(k+1)
        def _adams_image(self, k, a):
            return super()._adams_image(k + 1, a)

    for base, wrong, m in ((ProjectiveModel, LineNotReduced, 3), (SplitModel, OnePowerTooMany, 2)):
        validate_model(base(m))
        with pytest.raises(RegistrationFailure):
            validate_model(wrong(m))


def test_lambda_series_memo_is_bounded():
    split = SplitModel(2)
    x1, x2 = IntPoly.var("x", 1), IntPoly.var("x", 2)
    elems = [x1 + c * x2 for c in range(split.SERIES_MEMO_SIZE + 10)]
    for a in elems:
        split.lambda_series(a, 3)
    assert len(split._points) == split.SERIES_MEMO_SIZE
    for a in elems[:3] + elems[-3:]:  # the oldest were dropped and are rebuilt
        want = [reference_lam(split, k, a) for k in range(5)]
        assert split.lambda_series(a, 4) == want
    assert len(split._points) == split.SERIES_MEMO_SIZE


def test_validate_model_catches_broken_series():
    class BrokenSeries(SplitModel):
        def lambda_series(self, a, n):
            series = super().lambda_series(a, n)
            if n >= 3:
                series[3] = self.add(series[3], self.from_int(1))  # wrong on purpose
            return series

    broken = BrokenSeries(2)
    x1 = IntPoly.var("x", 1)
    assert broken.eq(broken.lambda_series(x1, 2)[2], SplitModel(2).lam(2, x1))
    with pytest.raises(RegistrationFailure):
        validate_model(broken)


def _random_l_poly(rng, weight=8):
    """1 to 5 terms c * L_{p1}...L_{pr} with p1 + ... + pr <= weight."""
    p = IntPoly.zero()
    for _ in range(rng.randint(1, 5)):
        mono, left = IntPoly.one(), rng.randint(0, weight)
        while left:
            part = rng.randint(1, left)
            mono, left = mono * IntPoly.var("L", part), left - part
        p = p + rng.choice([-3, -2, -1, 1, 2, 3]) * mono
    return p


def test_memoised_evaluate_matches_the_per_term_loop():
    rng = random.Random(31)
    l_polys = [_random_l_poly(rng) for _ in range(42)]
    l_polys += [universal_pij(i, j) for i in range(1, 5) for j in range(1, 4 // i + 1)]
    xy_polys = [universal_pk(k) for k in range(1, 5)]
    assert len(l_polys) == 50

    def check(polys, assign, model):
        shared = {}  # one memo for every polynomial at this point
        for p in polys:
            want = reference_evaluate(p, assign, model)
            assert model.eq(p.evaluate(assign, model), want), (model.name, p)
            assert model.eq(p.evaluate(assign, model, shared), want), (model.name, p)

    for model in register_models(validate=False).values():
        a, b, c = model.samples(rng, 3)
        # the reduced points where `act` evaluates, and unreduced split elements
        points = [model.point(e).reduced for e in (a, b, c)]
        for x in points + ([a, b, c] if isinstance(model, SplitModel) else []):
            series = model.lambda_series(x, 8)
            check(l_polys, {("L", k): series[k] for k in range(1, 9)}, model)
        lam_a, lam_b = model.lambda_series(a, 4), model.lambda_series(b, 4)
        assign = {("x", k): lam_a[k] for k in range(1, 5)}
        assign |= {("y", k): lam_b[k] for k in range(1, 5)}
        check(xy_polys, assign, model)
    values = {("L", k): rng.randint(-3, 3) for k in range(1, 9)}
    shared = {}
    for p in l_polys:
        assert p.evaluate(values) == p.evaluate(values, None, shared) == reference_evaluate(p, values)


def test_act_through_a_filled_point_matches_a_fresh_model():
    rng = random.Random(32)
    corpus = _operation_corpus(8, 16, rng, 10)
    ops = corpus + [compose_even(r, s) for r, s in zip(corpus, corpus[1:])]
    for name in register_models(validate=False):
        model = get_model(name)
        elems = model.samples(rng, 3)
        for r in ops:
            for alpha in elems:
                act(r, model, alpha)
        assert all(model.point(model.point(alpha).reduced).values for alpha in elems), name
        for r in ops:
            for alpha in elems:
                assert model.eq(act(r, model, alpha), act(r, get_model(name), alpha)), name


def test_evaluation_at_lambda_values_matches_an_explicit_assignment():
    # poly_eval_in_model keeps the values of one leg in the point record of
    # that leg, whatever the family, and those of two legs in a fresh memo.
    # One-leg L and T1 evaluations, `act` and two-leg pairings interleaved at
    # the same elements, and a stream that evicts records mid-way, must all
    # agree with an explicit assignment from the lambda series and no memo.
    rng = random.Random(33)
    weight, window = 6, 96
    l_polys = [_random_l_poly(rng, weight) for _ in range(4)]
    t1_polys = [p.rename_family("L", "T1") for p in l_polys]
    pairings = [p.rename_family("L", "T1") * q.rename_family("L", "T2") + q.rename_family("L", "T1")
                for p, q in zip(l_polys, l_polys[1:] + l_polys[:1])]
    ops = [EvenOp.from_pairs([(const(1), KBUElem(p, weight))], weight, window) for p in l_polys]

    def explicit(poly, model, legs):
        assign = {}
        for f, x in legs.items():
            series = model.lambda_series(x, weight)
            assign |= {(f, k): series[k] for k in range(1, weight + 1)}
        return poly.evaluate(assign, model)

    def check(model, x, y, kinds):
        red = model.point(x).reduced
        cases = {"L": (l_polys, {"L": x}), "T1": (t1_polys, {"T1": red}),
                 "pair": (pairings, {"T1": x, "T2": y})}
        for i in range(kinds):
            for kind, (polys, legs) in cases.items():
                got = poly_eval_in_model(polys[i], model, legs)
                assert model.eq(got, explicit(polys[i], model, legs)), (model.name, kind, i)
            got = act(ops[i], model, x)
            assert model.eq(got, explicit(l_polys[i], model, {"L": red})), (model.name, "act", i)

    models = list(register_models(validate=False).values()) + [get_model("cp:5"), get_model("split:4")]
    for model in models:
        samples = model.samples(rng, 3)
        s = samples[0]
        # an element of augmentation 7, beside the samples
        elems = samples + [model.add(s, model.from_int(7 - model.eps(s)))]
        for x, y in zip(elems, elems[1:] + elems[:1]):
            check(model, x, y, len(l_polys))
        # s + c for more c than there are point records: every one shares the
        # reduced leg s - eps(s), whose record is dropped and rebuilt mid-way
        first = model.point(model.point(s).reduced)
        stream = [model.add(s, model.from_int(c)) for c in range(model.SERIES_MEMO_SIZE + 8)]
        for x, y in zip(stream, stream[1:]):
            check(model, x, y, 1)
        assert model.point(model.point(s).reduced) is not first, model.name


def test_point_records_are_bounded_and_per_instance():
    split, other = SplitModel(2), SplitModel(2)
    x1, x2 = IntPoly.var("x", 1), IntPoly.var("x", 2)
    r = EvenOp.from_pairs([(const(1), gen(2, 4))], 4, 16)
    elems = [x1 + c * (x1 - x2) for c in range(200)]  # eps 1, so two records each
    for model in (split, other):
        for a in elems:
            assert act(r, model, a) == reference_lam(model, 2, a - 1)
        assert len(model._points) == model.SERIES_MEMO_SIZE == 64
    assert split._points is not other._points
    assert not {id(p) for p in split._points.values()} & {id(p) for p in other._points.values()}
    # a new instance starts empty, whatever instances came and went before it
    del other
    assert SplitModel(2)._points == {} and get_model("split:2")._points == {}
    for a in elems[:3]:  # dropped long ago: rebuilt, not read from elsewhere
        assert act(r, split, a) == reference_lam(split, 2, a - 1)


def test_get_model_selectors():
    assert get_model("split:4").m == 4
    assert get_model("cp:2").m == 2
    assert get_model("sphere").name == "sphere"
    with pytest.raises(ValueError):
        get_model("nope")


# -- unitary models ----------------------------------------------------------------


def test_un_restrict_examples():
    assert un_restrict(un_mu(3, 2)) == un_mu(2, 2) + un_mu(2, 1)
    assert un_restrict(un_mu(3, 3)) == un_mu(2, 2)
    assert un_restrict(un_one(3)) == un_one(2)
    with pytest.raises(RankUnderflow):
        un_restrict(un_mu(1, 1))
    with pytest.raises(IndexOutOfRange):
        un_mu(2, 3)


def test_lk_from_mu_examples():
    assert lk_from_mu(5, 1) == un_mu(5, 1)
    assert lk_from_mu(2, 2) == un_mu(2, 2) - 2 * un_mu(2, 1)
    assert un_restrict(lk_from_mu(3, 2)) == lk_from_mu(2, 2)


def test_un_restriction_chain():
    for n in range(3, 7):
        for k in range(1, n - 1):
            twice = un_restrict(un_restrict(lk_from_mu(n, k)))
            assert twice == lk_from_mu(n - 2, k)


def test_un_restrict_at_top_index_matches_cutoff_combination():
    # at k = n the Pascal collapse re-expresses the image in the lower-rank
    # binomials, with the out-of-rank generator dropped
    for n in range(2, 7):
        got = un_restrict(lk_from_mu(n, n))
        expected = un_one(n - 1) * 0
        for j in range(n):
            if 1 <= n - j <= n - 1:
                expected = expected + binom(-(n - 1), j) * un_mu(n - 1, n - j)
        assert got == expected


def test_bun_restrict_examples():
    assert bun_restrict(bun_beta(3, 2)) == bun_beta(2, 2) + bun_beta(2, 1)
    assert bun_restrict(bun_beta(2, 1)) == bun_beta(1, 1) + bun_beta(1, 0)
    assert lambdak_from_beta(2, 1) == bun_beta(2, 1) - 2 * bun_beta(2, 0)
    with pytest.raises(IndexOutOfRange):
        bun_beta(3, 1) * bun_beta(2, 1)
    with pytest.raises(IndexOutOfRange):
        un_mu(3, 1) - un_mu(2, 1)


def test_bun_restriction_identity():
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert bun_restrict(lambdak_from_beta(n + 1, k)) == lambdak_from_beta(n, k)


def test_exterior_sign_discipline():
    a = un_mu(4, 1) * un_mu(4, 3)
    b = un_mu(4, 3) * un_mu(4, 1)
    assert a == (-1) * b
    assert (un_mu(4, 2) * un_mu(4, 2)).ext.is_zero


def test_line_class_series_divides_in_the_quotient():
    # on cp:3, 4 lambda^4(u) is -4u + u^4 before the quotient kills u^4: the
    # Newton step divides only after the model's reduction
    model = get_model("cp:3")
    u = IntPoly.var("u", 1)
    elem = model.lambda_series(u, 4).__getitem__
    power = ([None] + [model.psi(k, u) for k in range(1, 5)]).__getitem__
    with pytest.raises(LambdaOpsError, match=r"^Newton step 4: .* not divisible by 4$"):
        _newton_step(4, elem, power)
    assert _newton_step(4, elem, power, model._reduce) == model.lam(4, u) == -u
