"""The even operation plethory: completed tensor of integer functions with
the truncated lambda-generator ring.

Normal form: a window-normalised operation is a table indexed by the
indicator basis, d -> x_d, meaning sum over |d| <= W of chi_d (x) x_d.  The
operation acts on an augmented lambda-ring element alpha as
x_{eps(alpha)} evaluated at alpha - eps(alpha); anything that would need an
augmentation outside the window raises instead of silently truncating.
"""

from __future__ import annotations

from functools import cache

from .errors import WindowExhausted
from .intpoly import IntPoly
from .kbu import KBUElem, coadd, colinear, comult_image, compose_kbu, cozero
from .models import LambdaRingModel, poly_eval_in_model
from .setzz import FnZZ, FnChi, FnCompose, Window, const, window_table
from .symfun import lambda_of_integer, partition_slices


def divisor_pairs(d: int, W: int) -> list[tuple[int, int]]:
    """All (r, s) with r*s = d and |r|, |s| <= W; for d = 0 the window-bounded
    family (0, s) and (r, 0)."""
    if d == 0:
        out = [(0, s) for s in range(-W, W + 1)]
        out += [(r, 0) for r in range(-W, W + 1) if r != 0]
        return out
    if abs(d) > W:
        # the pair (1, d) already leaves the window
        raise WindowExhausted(f"a divisor pair of {d} leaves the window [{-W}, {W}]")
    out = []
    for r in range(1, abs(d) + 1):
        if d % r == 0:
            out.append((r, d // r))
            out.append((-r, -(d // r)))
    return out


class EvenOp:
    """Finite sum of (function, ring element) pairs at truncation N, window W."""

    __slots__ = ("table", "trunc", "window")

    def __init__(self, table: dict[int, KBUElem], trunc: int, window: int):
        self.table = {d: x for d, x in table.items() if not x.is_zero}
        self.trunc = trunc
        self.window = window

    @staticmethod
    def from_pairs(pairs, trunc: int, window: int) -> "EvenOp":
        """Build from raw (FnZZ, KBUElem) summands: the left factors are
        expanded in the indicator basis over the window and grouped.  Each
        leg is scaled once per distinct function value."""
        table: dict[int, KBUElem] = {}
        w = Window(window)
        for f, x in pairs:
            if isinstance(x, int):
                x = KBUElem.from_int(x, trunc)
            scaled: dict[int, KBUElem] = {}
            for d, v in window_table(f, w).items():
                vx = scaled.get(v)
                if vx is None:
                    vx = scaled[v] = v * x
                cur = table.get(d)
                table[d] = vx if cur is None else cur + vx
        return EvenOp(table, trunc, window)

    def _match(self, other: "EvenOp"):
        if self.trunc != other.trunc or self.window != other.window:
            raise ValueError("operations live at different (trunc, window)")

    def component(self, d: int) -> KBUElem:
        if abs(d) > self.window:
            raise WindowExhausted(f"index {d} outside window {self.window}")
        return self.table.get(d, KBUElem.from_int(0, self.trunc))

    def __add__(self, other):
        self._match(other)
        out = dict(self.table)
        for d, x in other.table.items():
            out[d] = out[d] + x if d in out else x
        return EvenOp(out, self.trunc, self.window)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, int):
            return EvenOp({d: other * x for d, x in self.table.items()},
                          self.trunc, self.window)
        self._match(other)
        out = {}
        for d, x in self.table.items():
            if d in other.table:
                out[d] = x * other.table[d]
        return EvenOp(out, self.trunc, self.window)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, EvenOp)
            and (self.trunc, self.window) == (other.trunc, other.window)
            and self.table == other.table
        )

    @property
    def is_zero(self):
        return not self.table

    def __str__(self):
        ds = sorted(self.table)
        polys = IntPoly.to_text_all([self.table[d].poly for d in ds])
        return " + ".join([f"chi({d})(x)({poly})" for d, poly in zip(ds, polys)]) or "0"

    __repr__ = __str__

    def to_obj(self):
        """Object form for the CLI's JSON writer; each coefficient polynomial
        stays an IntPoly leaf, written by IntPoly.to_json_all."""
        return {
            "trunc": self.trunc,
            "window": self.window,
            "summands": [[f"chi({d})", self.table[d].poly] for d in sorted(self.table)],
        }


def identity_op(trunc: int, window: int) -> EvenOp:
    """The composition identity: 1 (x) L1 + iota (x) 1."""
    from .kbu import gen
    from .setzz import IDENT

    return EvenOp.from_pairs(
        [(const(1), gen(1, trunc)), (IDENT, KBUElem.from_int(1, trunc))],
        trunc,
        window,
    )


def op_cozero(r: EvenOp) -> int:
    """eps+: evaluate the function leg at 0 and kill the generators."""
    return cozero(r.component(0))


def op_counit(r: EvenOp) -> int:
    """eps-x: evaluate the function leg at 1 and take the constant term."""
    return cozero(r.component(1))


def act(r: EvenOp, model: LambdaRingModel, alpha):
    """Apply the operation to a model element:
    x_{eps(alpha)} with generators L_k replaced by lambda^k(alpha - eps(alpha)),
    both read from the point record of alpha (see `poly_eval_in_model`).
    """
    point = model.point(alpha)
    if abs(point.eps) > r.window:
        raise WindowExhausted(f"augmentation {point.eps} outside window {r.window}")
    x = r.table.get(point.eps)
    if x is None:
        return model.from_int(0)
    return poly_eval_in_model(x.poly, model, {"L": point.reduced})


# -- coalgebra structure -------------------------------------------------------


def act_pair(entry, model: LambdaRingModel, alpha, beta, window: int):
    """Pair one tensor entry against two model elements (product in the
    model): `entry(ea, eb)` gives the polynomial in T1/T2 at the
    augmentations of alpha and beta, and is asked only once both lie in the
    window."""
    pa, pb = model.point(alpha), model.point(beta)
    ea, eb = pa.eps, pb.eps
    if abs(ea) > window or abs(eb) > window:
        raise WindowExhausted(f"augmentations ({ea}, {eb}) outside window {window}")
    poly = entry(ea, eb)
    if poly.is_zero:
        return model.from_int(0)
    return poly_eval_in_model(poly, model, {"T1": pa.reduced, "T2": pb.reduced})


class EvenOpTensor:
    """Two-leg tensor of even operations: entries ((i, j) -> polynomial in the
    leg families T1/T2, each truncated at `trunc`) meaning sum of
    (chi_i (x) T1-part) (x) (chi_j (x) T2-part).
    """

    __slots__ = ("entries", "trunc", "window")

    def __init__(self, entries: dict[tuple[int, int], IntPoly], trunc: int, window: int):
        self.entries = {key: poly for key, poly in entries.items() if not poly.is_zero}
        self.trunc = trunc
        self.window = window

    def __eq__(self, other):
        return (
            isinstance(other, EvenOpTensor)
            and (self.trunc, self.window) == (other.trunc, other.window)
            and self.entries == other.entries
        )

    def act2(self, model: LambdaRingModel, alpha, beta):
        """Pair the tensor against two model elements (product in the model)."""
        return act_pair(lambda ea, eb: self.entries.get((ea, eb), IntPoly.zero()),
                        model, alpha, beta, self.window)


def tensor_of_ops(r: EvenOp, s: EvenOp) -> EvenOpTensor:
    r._match(s)
    entries = {}
    for i, x in r.table.items():
        for j, y in s.table.items():
            entries[(i, j)] = x.poly.rename_family("L", "T1") * y.poly.rename_family("L", "T2")
    return EvenOpTensor(entries, r.trunc, r.window)


def coadd_entry(r: EvenOp, i: int, j: int) -> IntPoly:
    """Entry (i, j) of Delta+(r), a polynomial in T1/T2: Delta+(x_{i+j}).
    Zero when |i| or |j| exceeds the window or i + j is not in the table."""
    if abs(i) > r.window or abs(j) > r.window or i + j not in r.table:
        return IntPoly.zero()
    return coadd(r.table[i + j]).poly


def op_coadd(r: EvenOp) -> EvenOpTensor:
    """Co-addition: the function leg dualises addition of augmentations and
    the ring leg coadds; entry (i, j) is Delta+(x_{i+j})."""
    W = r.window
    two_legs = _per_distinct_leg(r, lambda x: coadd(x).poly)
    entries: dict[tuple[int, int], IntPoly] = {}
    for d, two_leg in two_legs.items():
        for i in range(max(-W, d - W), min(W, d + W) + 1):
            entries[(i, d - i)] = two_leg
    return EvenOpTensor(entries, r.trunc, r.window)


def _per_distinct_leg(r: EvenOp, fn) -> dict:
    """{d: fn(x_d)} over the table, calling fn once per distinct leg."""
    done: dict[IntPoly, object] = {}
    out = {}
    for d, x in r.table.items():
        value = done.get(x.poly)
        if value is None:
            value = done[x.poly] = fn(x)
        out[d] = value
    return out


def op_is_primitive(r: EvenOp) -> bool:
    """Delta+(r) = r (x) 1 + 1 (x) r, compared where the window is faithful:
    Delta+(x_{i+j}) = x_i (x) 1 + 1 (x) x_j whenever |i|, |j|, |i+j| <= W.
    Equal legs share one object, so each distinct triple of objects is
    compared once."""
    W = r.window
    zero = IntPoly.zero()
    coadds = _per_distinct_leg(r, lambda x: coadd(x).poly)
    left = _per_distinct_leg(r, lambda x: x.poly.rename_family("L", "T1"))
    right = _per_distinct_leg(r, lambda x: x.poly.rename_family("L", "T2"))
    seen = set()
    for i in range(-W, W + 1):
        for j in range(max(-W, -W - i), min(W, W - i) + 1):
            triple = (coadds.get(i + j, zero), left.get(i, zero), right.get(j, zero))
            key = tuple(map(id, triple))
            if key not in seen:
                seen.add(key)
                if triple[0] != triple[1] + triple[2]:
                    return False
    return True


@cache
def _comult_basis(k: int, q: int, r: int) -> IntPoly:
    """M_{k,q,r} = [t^k] lambda_t(ab) (lambda_t(a) - 1)^q (lambda_t(b) - 1)^r
    in the generators of a (T1) and b (T2): the sum over i + j + l = k of
    P_i(T1; T2) D_{j,q}[T1] D_{l,r}[T2], with D from `partition_slices`
    (D_{j,q} is zero below j = q)."""
    return IntPoly.sum_of_products(
        (comult_image(i) if i else IntPoly.one(),
         partition_slices(j, "T1")[q] * partition_slices(k - i - j, "T2")[r])
        for i in range(k - q - r + 1) for j in range(q, k - i - r + 1))


@cache
def _comult_gen(rho: int, s: int, k: int) -> IntPoly:
    """lambda^k(alpha*beta - rho*s) at alpha = rho + a, beta = s + b, in the
    generators of a (T1) and b (T2): alpha*beta - rho*s = ab + s*a + rho*b,
    and lambda_t(n*x) = (1 + (lambda_t(x) - 1))^n, so it is the sum over
    q + r <= k of C(s, q) C(rho, r) M_{k,q,r} (see `_comult_basis`)."""
    cs, crho = ([lambda_of_integer(n, i) for i in range(k + 1)] for n in (s, rho))
    return IntPoly.linear_combination(
        (cs[q] * crho[r], _comult_basis(k, q, r))
        for q in range(k + 1) if cs[q] for r in range(k - q + 1) if crho[r])


def comult_entry(r: EvenOp, rho: int, s: int) -> IntPoly:
    """Entry (rho, s) of Delta-x(r), a polynomial in T1/T2: the image of
    x_{rho*s} under the ring map L_k -> _comult_gen(rho, s, k).
    Zero when |rho| or |s| exceeds the window or rho*s is not in the table.
    """
    if abs(rho) > r.window or abs(s) > r.window or rho * s not in r.table:
        return IntPoly.zero()
    return r.table[rho * s].poly.substitute_family("L", lambda k: _comult_gen(rho, s, k))


def op_comult(r: EvenOp) -> EvenOpTensor:
    """Co-multiplication via the unitalised-biring formula: for each summand
    chi_d (x) b, sum over divisor pairs r*s = d of
    chi_r (x) b(1)[1] gamma(s)(b(2))  (x)  chi_s (x) b(1)[2] gamma(r)(b(3)),
    where (1)(2)(3) is iterated co-addition and [1][2] co-multiplication.
    On generators it is one ring map per divisor pair: see comult_entry.
    The plethory is a commutative biring, so its co-multiplication is
    cocommutative: entry (s, rho) is entry (rho, s) with the legs T1 and T2
    exchanged, and only the entries with rho <= s are built.
    """
    entries = {(rho, s): comult_entry(r, rho, s)
               for d in r.table for rho, s in divisor_pairs(d, r.window) if rho <= s}
    mirrored = [key for key in entries if key[0] < key[1]]
    swapped = IntPoly.rename_all([entries[key] for key in mirrored], {"T1": "T2", "T2": "T1"})
    entries.update(((s, rho), poly) for (rho, s), poly in zip(mirrored, swapped))
    return EvenOpTensor(entries, r.trunc, r.window)


# -- composition ----------------------------------------------------------------


def compose_even_pair(r: EvenOp, g: FnZZ, y: KBUElem) -> EvenOp:
    """Literal element formula against a single right summand g (x) y:

    (chi_d (x) x) o (g (x) y)
        = sum over r*s = d of chi_r(eps+(y)) (chi_s o g) (x) gamma(s)(x) o (y - eps+(y)),

    extended additively over the left summands.
    """
    W = r.window
    c = cozero(y)
    if abs(c) > W:
        raise WindowExhausted(f"right augmentation {c} outside window {W}")
    ybar = y.reduced()
    pairs = []
    for d, x in r.table.items():
        for rho, s in divisor_pairs(d, W):
            if rho != c:  # chi_rho(eps+(y)) is a Kronecker delta
                continue
            fn_part = FnCompose(FnChi(s), g)
            kbu_part = compose_kbu(colinear(s, x), ybar)
            if not kbu_part.is_zero:
                pairs.append((fn_part, kbu_part))
    return EvenOp.from_pairs(pairs, r.trunc, r.window)


def compose_even(r: EvenOp, s: EvenOp) -> EvenOp:
    """Composition of window-normalised operations.

    Composition is additive on the left but not on the right; across the
    right-hand indicator decomposition the coproduct relations collapse
    (distinct indicators are orthogonal idempotents), leaving per-component
    compositions: the output component at a is x_{c_a} o (y_a - c_a) with
    c_a = eps+(y_a).  Each component agrees with the literal single-summand
    formula of compose_even_pair projected to its own indicator.  Equal
    right components give equal composites, so each distinct y_a is composed
    once.
    """
    r._match(s)
    W = r.window
    zero = KBUElem.from_int(0, r.trunc)
    composed: dict[IntPoly, KBUElem] = {}
    table = {}
    for a in range(-W, W + 1):
        y_a = s.table.get(a, zero)
        c_a = cozero(y_a)
        if abs(c_a) > W:
            raise WindowExhausted(f"augmentation {c_a} outside window {W}")
        x = r.table.get(c_a)
        if x is None:
            continue
        z_a = composed.get(y_a.poly)
        if z_a is None:
            z_a = composed[y_a.poly] = compose_kbu(x, y_a - c_a)
        if not z_a.is_zero:
            table[a] = z_a
    return EvenOp(table, r.trunc, r.window)
