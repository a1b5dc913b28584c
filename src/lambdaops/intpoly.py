"""Sparse multivariate polynomials over arbitrary-precision integers.

A variable is a (family, index) pair such as ("L", 3); a monomial is a
sorted tuple of (family, index, exponent) triples with positive exponents;
a polynomial maps monomials to nonzero integer coefficients.  Values are
treated as immutable after construction, so they are safe to share, hash
and memoise.  No other module depends on this layout: they read monomials
through the query and monomial-view methods and build them from `var`.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Iterable, Mapping

Mono = tuple  # tuple[tuple[str, int, int], ...]

ONE_MONO: Mono = ()


def _mono_mul(a: Mono, b: Mono) -> Mono:
    """Merge two sorted monomials, adding exponents of shared variables."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        fa, xa, ea = a[i]
        fb, xb, eb = b[j]
        if (fa, xa) == (fb, xb):
            out.append((fa, xa, ea + eb))
            i += 1
            j += 1
        elif (fa, xa) < (fb, xb):
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _add_product(out: dict, a: Mapping[Mono, int], b: Mapping[Mono, int]) -> None:
    """Add the product of the term maps `a` and `b` into `out` in place,
    dropping every coefficient that cancels to zero."""
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = _mono_mul(ma, mb)
            v = out.get(m, 0) + ca * cb
            if v:
                out[m] = v
            else:
                del out[m]


class IntPoly:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, int] | None = None):
        self.terms: dict[Mono, int] = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def _trusted(cls, terms: dict[Mono, int]) -> "IntPoly":
        """Wrap a term map that holds no zero coefficient, without copying or
        filtering it; the caller hands the dict over."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    # -- constructors -------------------------------------------------

    @staticmethod
    def var(family: str, index: int, exp: int = 1) -> "IntPoly":
        if exp < 0:
            raise ValueError("exponents must be nonnegative")
        if exp == 0:
            return IntPoly.one()
        return IntPoly({((family, index, exp),): 1})

    @staticmethod
    def const(c: int) -> "IntPoly":
        return IntPoly({ONE_MONO: c} if c else {})

    @staticmethod
    def zero() -> "IntPoly":
        return IntPoly()

    @staticmethod
    def one() -> "IntPoly":
        return IntPoly({ONE_MONO: 1})

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "IntPoly":
        other = _coerce(other)
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return IntPoly._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly._trusted({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "IntPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "IntPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            if other == 0:
                return IntPoly()
            return IntPoly._trusted({m: c * other for m, c in self.terms.items()})
        out: dict[Mono, int] = {}
        _add_product(out, self.terms, other.terms)
        return IntPoly._trusted(out)

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(pairs: Iterable[tuple["IntPoly", "IntPoly"]]) -> "IntPoly":
        """The sum of a * b over the pairs (a, b), accumulated in one term map."""
        out: dict[Mono, int] = {}
        for a, b in pairs:
            _add_product(out, a.terms, b.terms)
        return IntPoly._trusted(out)

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = IntPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == IntPoly.const(other).terms
        return isinstance(other, IntPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries --------------------------------------------------------

    def key(self):
        """Canonical hashable form: the term list sorted by monomial.  Hash
        the polynomial itself where order does not matter; this form is the
        `_COMPOSE_CACHE` key that `perfbench/tracer.py` rebuilds."""
        return tuple(sorted(self.terms.items()))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> int:
        return self.terms.get(ONE_MONO, 0)

    def coefficient(self, mono: "IntPoly") -> int:
        """The coefficient of the monomial `mono` (a one-term polynomial)."""
        ((m, _),) = mono.terms.items()
        return self.terms.get(m, 0)

    def variables(self) -> dict[tuple[str, int], int]:
        """Each variable that occurs, mapped to its highest exponent."""
        out: dict[tuple[str, int], int] = {}
        for m in self.terms:
            for (f, i, e) in m:
                if e > out.get((f, i), 0):
                    out[(f, i)] = e
        return out

    def part_of_family_degree(self, family: str, low: int, high: int | None = None) -> "IntPoly":
        """Keep the monomials whose total degree in `family` lies in
        [low, high]; high defaults to low."""
        high = low if high is None else high
        return IntPoly._trusted({
            m: c for m, c in self.terms.items()
            if low <= sum(e for (f, _, e) in m if f == family) <= high
        })

    def weight(self, family: str) -> int:
        """Max over monomials of sum(index * exponent) within `family`."""
        best = 0
        for m in self.terms:
            w = sum(i * e for (f, i, e) in m if f == family)
            best = max(best, w)
        return best

    # -- monomial views -------------------------------------------------
    # A monomial handed out is a one-term polynomial with coefficient 1, so
    # no caller depends on how monomials are stored.

    def sorted_terms(self) -> list[tuple["IntPoly", int]]:
        """The terms as (monomial, coefficient) pairs, sorted by monomial."""
        return [(IntPoly._trusted({m: 1}), c) for m, c in sorted(self.terms.items())]

    def split_first(self) -> tuple["IntPoly", "IntPoly"]:
        """For a monomial other than 1: its first variable and the monomial
        divided by that variable."""
        ((m, c),) = self.terms.items()
        f, i, e = m[0]
        rest = ((f, i, e - 1),) + m[1:] if e > 1 else m[1:]
        return IntPoly.var(f, i), IntPoly._trusted({rest: c})

    def collect(self, family: str) -> list[tuple["IntPoly", "IntPoly"]]:
        """Group the terms by their `family` part: (monomial in `family`,
        coefficient polynomial in the other families) pairs, sorted by
        monomial."""
        groups: dict[Mono, dict[Mono, int]] = {}
        for m, c in self.terms.items():
            inside = tuple(t for t in m if t[0] == family)
            groups.setdefault(inside, {})[tuple(t for t in m if t[0] != family)] = c
        return [(IntPoly._trusted({m: 1}), IntPoly._trusted(groups[m])) for m in sorted(groups)]

    def linear_coefficients(self, family: str) -> dict[int, int]:
        """{index: coefficient} of the terms that are a single `family`
        variable to the first power."""
        return {m[0][1]: c for m, c in self.terms.items()
                if len(m) == 1 and m[0][0] == family and m[0][2] == 1}

    def content_split(self) -> tuple[int, "IntPoly"]:
        """(content, primitive part) with content * primitive == self: the
        content is the gcd of the coefficients, signed so that the primitive
        part's first monomial (in sorted order) has a positive coefficient.
        Zero splits as (0, zero)."""
        if not self.terms:
            return 0, self
        c = math.gcd(*self.terms.values())
        if self.terms[min(self.terms)] < 0:
            c = -c
        if c == 1:
            return 1, self
        return c, IntPoly._trusted({m: v // c for m, v in self.terms.items()})

    def div_exact(self, n: int) -> "IntPoly":
        """Divide every coefficient by n; ValueError unless each one divides."""
        out: dict[Mono, int] = {}
        for m, c in self.terms.items():
            quot, rem = divmod(c, n)
            if rem:
                raise ValueError(f"coefficient {c} of {m} is not divisible by {n}")
            out[m] = quot
        return IntPoly._trusted(out)

    # -- structural maps ------------------------------------------------

    def map_terms(self, fn: Callable[[Mono, int], tuple[Mono, int]]) -> "IntPoly":
        out: dict[Mono, int] = {}
        for m, c in self.terms.items():
            m2, c2 = fn(m, c)
            v = out.get(m2, 0) + c2
            if v:
                out[m2] = v
            else:
                out.pop(m2, None)
        return IntPoly._trusted(out)

    def rename_family(self, src: str, dst: str) -> "IntPoly":
        def fn(m, c):
            m2 = tuple(sorted((dst if f == src else f, i, e) for (f, i, e) in m))
            return m2, c

        return self.map_terms(fn)

    def truncate_family(self, family: str, max_index: int) -> "IntPoly":
        """Drop every monomial containing a `family` variable above `max_index`."""
        return IntPoly._trusted(
            {
                m: c
                for m, c in self.terms.items()
                if all(not (f == family and i > max_index) for (f, i, _) in m)
            }
        )

    def substitute(self, images: Mapping[tuple[str, int], "IntPoly | int"]) -> "IntPoly":
        """Simultaneously substitute polynomials for variables.

        Variables absent from `images` are left untouched.  Substitution is
        a ring map, so the result is exact.
        """
        imgs = {v: _coerce(p) for v, p in images.items()}
        pow_cache: dict[tuple[tuple[str, int], int], dict[Mono, int]] = {}
        out: dict[Mono, int] = {}
        for m, c in self.terms.items():
            factors = []
            for (f, i, e) in m:
                v = (f, i)
                if v in imgs:
                    p = pow_cache.get((v, e))
                    if p is None:
                        p = (imgs[v] ** e).terms
                        pow_cache[(v, e)] = p
                    factors.append(p)
                else:
                    factors.append({((f, i, e),): 1})
            # multiply all but the last factor into acc, then add acc times
            # the last factor straight into the result
            *head, last = factors or [{ONE_MONO: 1}]
            acc = {ONE_MONO: c}
            for p in head:
                acc, prev = {}, acc
                _add_product(acc, prev, p)
            _add_product(out, acc, last)
        return IntPoly._trusted(out)

    def substitute_family(self, family: str, image: Callable[[int], "IntPoly | int"]) -> "IntPoly":
        """The ring map sending each `family` variable of index k to image(k).

        `image` is called only for the indices that occur in the polynomial.
        """
        return self.substitute(
            {v: image(v[1]) for v in sorted(self.variables()) if v[0] == family}
        )

    def evaluate(self, assign: Mapping[tuple[str, int], object], ring=None):
        """Evaluate with every variable assigned.  The values are integers,
        or elements of `ring`, an object with from_int, add and mul (such as
        a lambda-ring model)."""
        if ring is None:
            total = 0
            for m, c in self.terms.items():
                v = c
                for (f, i, e) in m:
                    v *= assign[(f, i)] ** e
                total += v
            return total
        total = ring.from_int(0)
        for m, c in self.terms.items():
            acc = ring.from_int(c)
            for (f, i, e) in m:
                value = assign[(f, i)]
                for _ in range(e):
                    acc = ring.mul(acc, value)
            total = ring.add(total, acc)
        return total

    # -- serialisation ----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items()):
            factors = "*".join(
                f"{f}{i}" if e == 1 else f"{f}{i}^{e}" for (f, i, e) in m
            )
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = factors
            else:
                body = f"{abs(c)}*{factors}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    __repr__ = __str__

    def to_obj(self) -> list:
        """JSON-ready form: sorted terms, decimal-string coefficients."""
        return [
            {"mono": [[f, i, e] for (f, i, e) in m], "coeff": str(c)}
            for m, c in sorted(self.terms.items())
        ]

    def to_json(self, memo: dict | None = None) -> str:
        """The JSON text of `to_obj()` with sorted keys and no spaces: the
        bytes of json.dumps(p.to_obj(), sort_keys=True, separators=(",", ":")).
        `memo` maps each monomial written so far to its text; pass one dict to
        every polynomial of one output so that each monomial is encoded once."""
        if memo is None:
            memo = {}
        terms = self.terms
        monos = sorted(terms)
        for m in monos:
            if m not in memo:
                memo[m] = ',"mono":[' + ",".join(
                    f"[{json.dumps(f)},{i},{e}]" for (f, i, e) in m
                ) + "]}"
        return "[" + ",".join([f'{{"coeff":"{terms[m]}"{memo[m]}' for m in monos]) + "]"

    @staticmethod
    def from_obj(obj: Iterable[dict]) -> "IntPoly":
        terms: dict[Mono, int] = {}
        for t in obj:
            mono = tuple(sorted((f, int(i), int(e)) for f, i, e in t["mono"]))
            terms[mono] = int(t["coeff"])
        return IntPoly(terms)

    @staticmethod
    def from_json(text: str) -> "IntPoly":
        return IntPoly.from_obj(json.loads(text))


def _coerce(x) -> IntPoly:
    if isinstance(x, IntPoly):
        return x
    if isinstance(x, int):
        return IntPoly.const(x)
    raise TypeError(f"cannot treat {type(x).__name__} as IntPoly")


class Truncated:
    """Base of the wrappers that pair a ring value with the level (a
    truncation or a rank) it is truncated at.  A subclass names its value and
    level slots in the class statement and rebuilds itself at its own level in
    `_rebuild(value)`; arithmetic requires equal levels and reads an integer
    as a constant."""

    __slots__ = ()
    _mismatch = ValueError  # raised when two operands carry different levels

    def __init_subclass__(cls, value: str, level: str, **kwargs):
        super().__init_subclass__(**kwargs)
        # alias the subclass's slot descriptors, so reads cost a slot lookup
        cls._value = cls.__dict__[value]
        cls._level = cls.__dict__[level]

    def _match(self, other):
        if isinstance(other, int):
            return other
        if other._level != self._level:
            raise self._mismatch(f"levels differ: {self._level} and {other._level}")
        return other._value

    def __add__(self, other):
        return self._rebuild(self._value + self._match(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self._rebuild(self._value - self._match(other))

    def __neg__(self):
        return self._rebuild(-self._value)

    def __mul__(self, other):
        return self._rebuild(self._value * self._match(other))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self._value == other
        return (
            type(other) is type(self)
            and self._level == other._level
            and self._value == other._value
        )
