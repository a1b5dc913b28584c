"""Total functions Z -> Z as finite expression trees, with window-truncated
biring structure, plus the complete-orthogonal-idempotents model of their
functor of points.

Equality of functions is decidable only per window: two trees are regarded
as equal at window W when they agree on every integer in [-W, W].  Every
coproduct output records the window it was computed at.
"""

from __future__ import annotations

from .errors import InvalidFamily


# -- expression trees ---------------------------------------------------


class _Value:
    """Immutable value object: the fields are named in `_fields` (which
    subclasses also use as `__slots__`), set positionally, and define
    equality within one class, the hash and the repr."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FnZZ(_Value):
    """Base class for function expression trees."""

    __slots__ = ()

    def ev(self, n: int) -> int:
        raise NotImplementedError

    def __call__(self, n: int) -> int:
        return self.ev(n)

    def __str__(self) -> str:
        return self.serialise()

    def serialise(self) -> str:
        raise NotImplementedError


class FnConst(FnZZ):
    __slots__ = _fields = ("c",)

    def ev(self, n):
        return self.c

    def serialise(self):
        return f"const({self.c})"


class FnId(FnZZ):
    __slots__ = ()

    def ev(self, n):
        return n

    def serialise(self):
        return "id"


class FnChi(FnZZ):
    __slots__ = _fields = ("d",)

    def ev(self, n):
        return 1 if n == self.d else 0

    def serialise(self):
        return f"chi({self.d})"


class FnSum(FnZZ):
    __slots__ = _fields = ("parts",)

    def ev(self, n):
        return sum(p.ev(n) for p in self.parts)

    def serialise(self):
        return "(sum " + " ".join(p.serialise() for p in self.parts) + ")"


class FnProd(FnZZ):
    __slots__ = _fields = ("parts",)

    def ev(self, n):
        out = 1
        for p in self.parts:
            out *= p.ev(n)
        return out

    def serialise(self):
        return "(prod " + " ".join(p.serialise() for p in self.parts) + ")"


class FnCompose(FnZZ):
    __slots__ = _fields = ("outer", "inner")

    def ev(self, n):
        return self.outer.ev(self.inner.ev(n))

    def serialise(self):
        return f"(comp {self.outer.serialise()} {self.inner.serialise()})"


def const(c: int) -> FnZZ:
    return FnConst(c)


def chi(d: int) -> FnZZ:
    return FnChi(d)


IDENT = FnId()


def fn_compose(f: FnZZ, g: FnZZ) -> FnZZ:
    """Composition of maps: eval(result, n) = f(g(n)) for every n."""
    return FnCompose(f, g)


# -- windows ------------------------------------------------------------


class Window(_Value):
    __slots__ = _fields = ("W",)

    def __init__(self, W: int):
        if W < 1:
            raise ValueError("window must be >= 1")
        super().__init__(W)

    def indices(self):
        return range(-self.W, self.W + 1)


def window_table(f: FnZZ, w: Window) -> dict[int, int]:
    """Value table of f on [-W, W], zeros omitted."""
    return {d: v for d in w.indices() if (v := f.ev(d)) != 0}


def fn_window_normalise(f: FnZZ, w: Window) -> FnZZ:
    """Indicator-basis form sum_{|d|<=W} f(d) chi_d, agreeing with f on the window."""
    return FnSum(tuple(FnChi(d) if v == 1 else FnProd((FnConst(v), FnChi(d)))
                       for d, v in fn_window_pairs(f, w)))


def fn_window_pairs(f: FnZZ, w: Window) -> list[tuple[int, int]]:
    """Serialisation of the normalised form: sorted (d, value) pairs."""
    return sorted(window_table(f, w).items())


def fn_cozero(f: FnZZ) -> int:
    """The additive counit (co-zero) eps+: evaluation at 0."""
    return f.ev(0)


def fn_counit(f: FnZZ) -> int:
    """The multiplicative counit eps-x: evaluation at 1."""
    return f.ev(1)


# -- window coproducts ----------------------------------------------------


class FnTensor:
    """Finite indicator-basis tensor sum_{i,j} c_{ij} chi_i (x) chi_j."""

    __slots__ = ("table", "window")

    def __init__(self, table: dict[tuple[int, int], int], window: Window):
        self.table = {k: v for k, v in table.items() if v}
        self.window = window

    def eval_at(self, a: int, b: int) -> int:
        return self.table.get((a, b), 0)

    def support(self) -> list[tuple[int, int]]:
        return sorted(self.table)

    def __eq__(self, other):
        return (
            isinstance(other, FnTensor)
            and self.table == other.table
            and self.window == other.window
        )

    def __str__(self):
        parts = [f"{c}*chi({i})(x)chi({j})" for (i, j), c in sorted(self.table.items())]
        return " + ".join(parts) if parts else "0"


def fn_coadd(f: FnZZ, w: Window) -> FnTensor:
    """Co-addition at window W: sum over |i|,|j| <= W of f(i+j) chi_i (x) chi_j.

    Evaluating the output at (a, b) in the window square returns f(a+b).
    """
    return _fn_coproduct(f, w, lambda i, j: i + j)


def fn_comult(f: FnZZ, w: Window) -> FnTensor:
    """Co-multiplication at window W: sum of f(i*j) chi_i (x) chi_j."""
    return _fn_coproduct(f, w, lambda i, j: i * j)


def _fn_coproduct(f: FnZZ, w: Window, index_op) -> FnTensor:
    return FnTensor({(i, j): f.ev(index_op(i, j)) for i in w.indices() for j in w.indices()}, w)


# -- complete orthogonal idempotents ---------------------------------------


class SampleRing:
    """Minimal exact commutative ring interface for COI families."""

    name = "ring"

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def zero(self):
        return 0

    def one(self):
        return 1


class IntegerRing(SampleRing):
    name = "Z"

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b


class ModRing(SampleRing):
    def __init__(self, n: int):
        self.n = n
        self.name = f"Z/{n}"

    def add(self, a, b):
        return (a + b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n


class COIFamily:
    """Complete orthogonal idempotents indexed by integers: finitely many
    nonzero entries x_d with sum 1, x_d^2 = x_d and x_d x_e = 0 for d != e.
    Invariants are asserted on construction, except where a family is valid
    by construction (see `_built`); a family is an immutable value.
    """

    __slots__ = ("ring", "entries")

    def __init__(self, ring: SampleRing, entries: dict[int, object]):
        self.ring = ring
        self.entries = {d: v for d, v in entries.items() if v != ring.zero()}
        total = ring.zero()
        for d, v in self.entries.items():
            total = ring.add(total, v)
            if ring.mul(v, v) != v:
                raise InvalidFamily(f"entry at {d} is not idempotent in {ring.name}")
        if total != ring.one():
            raise InvalidFamily(f"entries sum to {total}, not 1, in {ring.name}")
        items = list(self.entries.items())
        for idx, (d, v) in enumerate(items):
            for e, u in items[idx + 1:]:
                if ring.mul(v, u) != ring.zero():
                    raise InvalidFamily(f"entries at {d} and {e} are not orthogonal")

    @staticmethod
    def delta(ring: SampleRing, d: int) -> "COIFamily":
        return _built(ring, {d: ring.one()})

    def __eq__(self, other):
        return isinstance(other, COIFamily) and self.entries == other.entries

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def __str__(self):
        return "{" + ", ".join(f"{d}: {v}" for d, v in sorted(self.entries.items())) + "}"

    def delta_index(self) -> int:
        """For a singleton family delta_d, the index d."""
        if len(self.entries) == 1:
            return next(iter(self.entries))
        if not self.entries:
            raise InvalidFamily("empty family has no index")
        raise InvalidFamily("family is not a single delta")


def _built(ring: SampleRing, entries: dict[int, object]) -> COIFamily:
    """The family of the nonzero `entries`, built without the checks of
    `COIFamily.__init__`: for families that are valid by construction."""
    f = object.__new__(COIFamily)
    f.ring = ring
    f.entries = {d: v for d, v in entries.items() if v != ring.zero()}
    return f


def coi_add(a: COIFamily, b: COIFamily) -> COIFamily:
    """pi_l((x_i) + (y_j)) = sum over i+j=l of x_i y_j."""
    return _coi_convolve(a, b, lambda i, j: i + j)

def coi_mul(a: COIFamily, b: COIFamily) -> COIFamily:
    """pi_l((x_i)(y_j)) = sum over i*j=l of x_i y_j."""
    return _coi_convolve(a, b, lambda i, j: i * j)


def _coi_convolve(a, b, index_op):
    if a.ring is not b.ring and a.ring.name != b.ring.name:
        raise InvalidFamily("families over different sample rings")
    ring = a.ring
    out: dict[int, object] = {}
    for i, v in a.entries.items():
        for j, u in b.entries.items():
            l = index_op(i, j)
            out[l] = ring.add(out.get(l, ring.zero()), ring.mul(v, u))
    return _built(ring, out)
