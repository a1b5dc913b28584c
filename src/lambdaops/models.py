"""Lambda-ring action oracles and the finite-rank unitary-group models.

Each registered model carries exact arithmetic, an augmentation eps, and a
lambda rule computed independently of the universal polynomials: on the
line-class models psi^k is the ring map that raises each line to its k-th
power, and the lambda series grows from those Adams values by Newton's
identity.  This makes the models usable as ground truth against everything
built from P_k and P_{i,j}.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import count, islice, repeat
from operator import mul

from .errors import IndexOutOfRange, RankUnderflow, RegistrationFailure
from .exterior import ExtElem
from .intpoly import IntPoly, Truncated
from .setzz import COIFamily, IntegerRing, coi_add, coi_mul
from .symfun import _newton_step, lambda_of_integer, newton_psi, universal_pij, universal_pk


class Point:
    """What a model knows of its element a: eps(a), a - eps(a), its lambda series
    as far as the iterator `lambdas` has grown it, and `values`, the
    `IntPoly.evaluate` memo that maps a monomial in any family f to its value
    at f_k -> lambda^k(a).  Only `poly_eval_in_model` writes `values`."""

    __slots__ = ("eps", "reduced", "series", "lambdas", "values")

    def __init__(self, eps: int, reduced, lambdas):
        self.eps, self.reduced, self.lambdas = eps, reduced, lambdas
        self.series, self.values = [], {}


class LambdaRingModel:
    """Exact lambda-ring with augmentation; subclasses fix the carrier of hashable elements."""

    name = "model"

    # Point records kept per model instance, oldest dropped first, so that
    # acting on a long stream of distinct elements holds bounded memory.  The
    # 300 compose-and-act pairs on three samples reach under 30 per model.
    SERIES_MEMO_SIZE = 64

    def __init__(self):
        self._points: dict = {}  # element -> its Point, oldest first

    def point(self, a) -> Point:
        """The record of the element `a`, made on first use."""
        p = self._points.get(a)
        if p is None:
            if len(self._points) >= self.SERIES_MEMO_SIZE:
                del self._points[next(iter(self._points))]  # the oldest record
            e = self.eps(a)
            p = self._points[a] = Point(e, self.sub(a, self.from_int(e)) if e else a,
                                        self._lambdas(a))
        return p

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def eq(self, a, b) -> bool:
        return a == b

    def combine(self, coeffs, values):
        """The sum of c * v over the integers c of `coeffs` (a collection) and
        the `values`, each distinct c made once by from_int: how
        `IntPoly.evaluate` adds up its terms."""
        made = {c: self.from_int(c) for c in set(coeffs)}
        terms = [self.mul(made[c], v) for c, v in zip(coeffs, values)]
        return reduce(self.add, terms) if terms else self.from_int(0)

    def eps(self, a) -> int:
        raise NotImplementedError

    def lam(self, k: int, a):
        raise NotImplementedError

    def lambda_series(self, a, n: int) -> list:
        """A fresh list [lambda^0(a), ..., lambda^n(a)]: a prefix of the
        series kept in the point record of a."""
        return self._series(a, n)[:n + 1]

    def _series(self, a, n: int) -> list:
        """The series kept in the record of a, grown in place to lambda^n(a)."""
        p = self.point(a)
        if len(p.series) <= n:
            p.series += islice(p.lambdas, n + 1 - len(p.series))
        return p.series

    def _lambdas(self, a):
        """The iterator lambda^0(a), lambda^1(a), ... of a new point record."""
        return map(self.lam, count(), repeat(a))

    def psi(self, k: int, a):
        """Adams value: Newton's psi_k evaluated at lambda^1(a)..lambda^k(a)."""
        return poly_eval_in_model(newton_psi(k), self, {"L": a})

    def samples(self, rng: random.Random, count: int) -> list:
        raise NotImplementedError

    def show(self, a) -> str:
        return str(a)


class IntegerModel(LambdaRingModel):
    """The integers with eps = id and lambda^k = binomial coefficients."""

    name = "zz"

    def from_int(self, n):
        return n

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def combine(self, coeffs, values):
        return sum(map(mul, coeffs, values))

    def eps(self, a):
        return a

    def lam(self, k, a):
        return lambda_of_integer(a, k)

    def samples(self, rng, count):
        return [rng.randint(-4, 4) for _ in range(count)]


class LineClassModel(LambdaRingModel):
    """Carrier of IntPolys in line classes, on which psi^k is the ring map
    with psi^k(C) = C^k for each line class C (Atiyah-Tall); the lambda
    series grows from these Adams values by Newton's identity (see
    `_lambdas`), so lambda_t(sum n_i C_i) = prod (1 + C_i t)^{n_i}.
    """

    def _reduce(self, p: IntPoly) -> IntPoly:
        return p

    def _adams_image(self, k: int, a: IntPoly) -> dict:
        """psi^k of each line generator that `a` holds."""
        raise NotImplementedError

    def from_int(self, n):
        return IntPoly.const(n)

    def add(self, a, b):
        # no _reduce: a sum of reduced elements is reduced, and an unreduced
        # element only feeds psi, whose products `mul` reduces
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return self._reduce(a * b)

    def combine(self, coeffs, values):
        return IntPoly.linear_combination(zip(coeffs, values))

    def _lambdas(self, a):
        """lambda^0(a), lambda^1(a), ...: lambda^k is one Newton step over the
        Adams values psi^1(a)..psi^k(a) in the quotient that `_reduce` maps to."""
        series, powers = [IntPoly.one()], [None]
        yield series[0]
        for k in count(1):
            powers.append(self.psi(k, a))
            series.append(_newton_step(k, series.__getitem__, powers.__getitem__, self._reduce))
            yield series[k]

    def lam(self, k, a):
        return self._series(a, k)[k]

    def psi(self, k: int, a: IntPoly) -> IntPoly:
        """Adams value: a evaluated in the model at the Adams images of its
        line generators, psi^k being a ring map."""
        return a.evaluate(self._adams_image(k, a), self)


class SplitModel(LineClassModel):
    """Polynomials in m line variables; every monomial is a line class."""

    def __init__(self, m: int):
        super().__init__()
        self.m = m
        self.name = f"split:{m}"

    def _adams_image(self, k, a):
        # only the variables a holds, so no x_i is built that a lacks
        return {("x", i): IntPoly.var("x", i, k) for i in a.indices("x")}

    def eps(self, a):
        return a.evaluate({("x", i): 1 for i in range(1, self.m + 1)})

    def samples(self, rng, count):
        out = []
        while len(out) < count:
            n_terms = rng.randint(1, 3)
            p = IntPoly.zero()
            for _ in range(n_terms):
                mono = IntPoly.one()
                for i in range(1, self.m + 1):
                    e = rng.choice([0, 0, 1, 1, 2])
                    if e:
                        mono = mono * IntPoly.var("x", i, e)
                p = p + rng.choice([-2, -1, 1, 1, 2]) * mono
            if abs(self.eps(p)) <= 6:
                out.append(p)
        return out


class ProjectiveModel(LineClassModel):
    """Z[u]/(u^(m+1)) with u = L - 1 the reduced class of the line L."""

    def __init__(self, m: int, name: str | None = None):
        super().__init__()
        self.m = m
        self.name = name or f"cp:{m}"

    def _reduce(self, p: IntPoly):
        return p.part_of_family_degree("u", 0, self.m)

    def _adams_image(self, k, a):
        # psi^k(u) = (1 + u)^k - 1, truncated above u^m
        powers = range(1, min(k, self.m) + 1)
        return {("u", 1): IntPoly.linear_combination(
            (lambda_of_integer(k, i), IntPoly.var("u", 1, i)) for i in powers)}

    def eps(self, a):
        return a.constant_term()

    def samples(self, rng, count):
        out = []
        for _ in range(count):
            p = IntPoly.const(rng.randint(-3, 3))
            for i in range(1, self.m + 1):
                c = rng.randint(-2, 2)
                if c:
                    p = p + c * IntPoly.var("u", 1, i)
            out.append(p)
        return out

    def show(self, a):
        return str(a).replace("u1", "u")


class COIModel(LambdaRingModel):
    """Orthogonal-idempotent families over the integers; since Z has no zero
    divisors every valid family is a single delta_d, and the model is the
    integers wearing the functor-of-points arithmetic.
    """

    name = "coi"
    ring = IntegerRing()  # stateless, so shared by every instance

    def from_int(self, n):
        return COIFamily.delta(self.ring, n)

    def add(self, a, b):
        return coi_add(a, b)

    def neg(self, a):
        return COIFamily.delta(self.ring, -a.delta_index())

    def mul(self, a, b):
        return coi_mul(a, b)

    def eps(self, a):
        return a.delta_index()

    def lam(self, k, a):
        return COIFamily.delta(self.ring, lambda_of_integer(a.delta_index(), k))

    def samples(self, rng, count):
        return [COIFamily.delta(self.ring, rng.randint(-4, 4)) for _ in range(count)]


def model_psi(model: LambdaRingModel, k: int, a):
    """The Adams value psi^k(a) in the model."""
    return model.psi(k, a)


class _Lambdas:
    """The assignment (f, k) -> lambda^k(legs[f]), read by `IntPoly.evaluate`
    only for the monomials its memo misses."""

    __slots__ = ("model", "legs")

    def __init__(self, model: LambdaRingModel, legs: dict):
        self.model, self.legs = model, legs

    def __getitem__(self, var):
        return self.model.lam(var[1], self.legs[var[0]])


def poly_eval_in_model(poly: IntPoly, model: LambdaRingModel, legs: dict):
    """`poly` evaluated at f_k -> lambda^k(legs[f]) for each family f of `legs`,
    a map from families to model elements.  With one leg x the monomial
    values are kept in the point record of x, shared by every evaluation at
    x; with two, in a fresh memo."""
    memo = model.point(*legs.values()).values if len(legs) == 1 else None
    return poly.evaluate(_Lambdas(model, legs), model, memo)


def validate_model(model: LambdaRingModel, max_k: int = 4,
                   rng: random.Random | None = None):
    """Axiom suite: lambda^0 = 1, lambda^1 = id, the sum rule, the product
    rule through P_k and the composition rule through P_{i,j}, all bit-exact
    on sampled elements.  Raises RegistrationFailure naming the axiom.
    """
    rng = rng or random.Random(7)
    elems = model.samples(rng, 12)

    def fail(axiom, detail):
        raise RegistrationFailure(f"model {model.name}: {axiom}: {detail}")

    one = model.from_int(1)
    for a in elems:
        lam_a = model.lambda_series(a, 2)
        if not model.eq(lam_a[0], one):
            fail("lambda^0 = 1", model.show(a))
        if not model.eq(lam_a[1], a):
            fail("lambda^1 = id", model.show(a))
        if model.eps(lam_a[2]) != lambda_of_integer(model.eps(a), 2):
            fail("eps compatibility", model.show(a))

    for a, b in zip(elems[0::2], elems[1::2]):
        # the composition rule below reads lambda^m(a) up to m = 4
        lam_a = model.lambda_series(a, max(max_k, 4))
        lam_b = model.lambda_series(b, max_k)
        lam_sum = model.lambda_series(model.add(a, b), max_k)
        lam_prod = model.lambda_series(model.mul(a, b), max_k)
        for k in range(1, max_k + 1):
            rhs = model.from_int(0)
            for i in range(k + 1):
                rhs = model.add(rhs, model.mul(lam_a[i], lam_b[k - i]))
            if not model.eq(lam_sum[k], rhs):
                fail(f"sum rule k={k}", f"{model.show(a)}, {model.show(b)}")
            rhs = poly_eval_in_model(universal_pk(k), model, {"x": a, "y": b})
            if not model.eq(lam_prod[k], rhs):
                fail(f"product rule k={k}", f"{model.show(a)}, {model.show(b)}")
        # lambda^i(lambda^j(a)) for every i * j <= 4
        lam_lam = {j: model.lambda_series(lam_a[j], 4 // j) for j in range(1, 5)}
        for i in range(1, 5):
            for j in range(1, 4 // i + 1):
                rhs = poly_eval_in_model(universal_pij(i, j), model, {"L": a})
                if not model.eq(lam_lam[j][i], rhs):
                    fail(f"composition rule ({i},{j})", model.show(a))


def register_models(validate: bool = True) -> dict[str, LambdaRingModel]:
    """Build the standard model family, optionally running the axiom suite."""
    models: dict[str, LambdaRingModel] = {}
    for model in (
        IntegerModel(),
        ProjectiveModel(1, name="sphere"),
        ProjectiveModel(2),
        ProjectiveModel(3),
        SplitModel(2),
        SplitModel(3),
        COIModel(),
    ):
        if validate:
            validate_model(model)
            model._points.clear()  # records of the sample elements only
        models[model.name] = model
    return models


# Largest m accepted in 'cp:m' and 'split:m'.  Every registered model has
# m <= 3; the cost of the line-class models grows quickly with m.
MAX_MODEL_M = 64


def get_model(selector: str) -> LambdaRingModel:
    """Resolve a CLI selector such as 'sphere', 'cp:3' or 'split:4'."""
    if selector == "zz":
        return IntegerModel()
    if selector == "sphere":
        return ProjectiveModel(1, name="sphere")
    if selector == "coi":
        return COIModel()
    if selector.startswith(("cp:", "split:")):
        try:
            m = int(selector.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"model {selector}: m must be an integer") from None
        if m < 1:
            raise ValueError(f"model {selector}: m must be at least 1")
        if m > MAX_MODEL_M:
            raise ValueError(f"model {selector}: m must be at most {MAX_MODEL_M}")
        return ProjectiveModel(m) if selector.startswith("cp:") else SplitModel(m)
    raise ValueError(f"unknown model selector: {selector}")


# -- finite-rank unitary and classifying-space models -------------------------


class UnElem(Truncated, value="ext", level="rank"):
    """Exterior-algebra element over Z on mu^1..mu^n at rank n."""

    __slots__ = ("rank", "ext")
    _mismatch = IndexOutOfRange

    def __init__(self, rank: int, ext: ExtElem):
        if rank < 1:
            raise RankUnderflow("rank must be >= 1")
        self.rank = rank
        self.ext = ext.truncate(rank)

    def _rebuild(self, ext: ExtElem) -> "UnElem":
        return UnElem(self.rank, ext)

    def __str__(self):
        return self.ext.render("mu")


def un_mu(n: int, k: int) -> UnElem:
    """The generator mu^k at rank n."""
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"mu^{k} undefined at rank {n}")
    return UnElem(n, ExtElem.generator(k))


def un_restrict(x: UnElem) -> UnElem:
    """Restriction along the standard inclusion of the rank below:
    mu^k maps to mu^k + mu^(k-1), with mu^0 = 0 and indices above the target
    rank dropped; extended as an algebra map.
    """
    if x.rank < 2:
        raise RankUnderflow("cannot restrict below rank 1")
    target = x.rank - 1

    def image(k: int) -> ExtElem:
        out = ExtElem()
        if k <= target:
            out = out + ExtElem.generator(k)
        if 1 <= k - 1 <= target:
            out = out + ExtElem.generator(k - 1)
        return out

    return UnElem(target, x.ext.substitute(image))


def lk_from_mu(n: int, k: int) -> UnElem:
    """l^k at rank n: sum over i < k of C(-n, i) mu^(k-i)."""
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"l^{k} undefined at rank {n}")
    total = ExtElem()
    for i in range(k):
        total = total + lambda_of_integer(-n, i) * ExtElem.generator(k - i)
    return UnElem(n, total)


class BUnElem(Truncated, value="poly", level="rank"):
    """Polynomial over Z in beta^1..beta^n at rank n."""

    __slots__ = ("rank", "poly")
    _mismatch = IndexOutOfRange

    def __init__(self, rank: int, poly: IntPoly):
        if rank < 1:
            raise RankUnderflow("rank must be >= 1")
        self.rank = rank
        self.poly = poly.truncate_family("B", rank)

    def _rebuild(self, poly: IntPoly) -> "BUnElem":
        return BUnElem(self.rank, poly)


def bun_beta(n: int, k: int) -> BUnElem:
    """beta^k at rank n (beta^0 = 1)."""
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"beta^{k} undefined at rank {n}")
    if k == 0:
        return BUnElem(n, IntPoly.one())
    return BUnElem(n, IntPoly.var("B", k))


def bun_restrict(x: BUnElem) -> BUnElem:
    """Restriction from rank n+1 to rank n: beta^k maps to beta^k + beta^(k-1)
    with beta^0 = 1 and beta^k = 0 above the target rank."""
    if x.rank < 2:
        raise RankUnderflow("cannot restrict below rank 1")
    target = x.rank - 1

    def image(k: int) -> IntPoly:
        out = IntPoly.zero()
        if k <= target:
            out = out + IntPoly.var("B", k)
        if k == 1:
            out = out + IntPoly.one()
        elif k - 1 <= target:
            out = out + IntPoly.var("B", k - 1)
        return out

    return BUnElem(target, x.poly.substitute_family("B", image))


def lambdak_from_beta(n: int, k: int) -> BUnElem:
    """lambda^k at rank n: sum over i <= k of C(-n, i) beta^(k-i)."""
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"lambda^{k} undefined at rank {n}")
    total = IntPoly.zero()
    for i in range(k + 1):
        c = lambda_of_integer(-n, i)
        total = total + (c * IntPoly.one() if k - i == 0 else c * IntPoly.var("B", k - i))
    return BUnElem(n, total)
