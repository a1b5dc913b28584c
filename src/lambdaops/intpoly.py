"""Sparse multivariate polynomials over arbitrary-precision integers.

A variable is a (family, index) pair such as ("L", 3).  A polynomial maps
monomials to nonzero integer coefficients, and a monomial is packed into one
nonnegative integer: a process-wide registry gives each variable, on first
use, a 16-bit field of its own, and the variable's exponent sits in that
field.  Multiplying two monomials is then one integer addition.  An exponent
must stay at most `MAX_EXPONENT` (2**15 - 1): the top bit of every field is a
guard, and a product, power, substitution or renaming that sets it raises
`LambdaOpsError` instead of carrying into the next field.

A monomial is decoded into sorted (family, index, exponent) triples only where
its order can be seen: printing, serialisation, `key`, `sorted_terms`, the
keys of `collect` and error texts; `terms` hands out such a decoded copy of
the term map.  Every order shown comes from `_ordered`.  Both output formats
decode and sort each distinct monomial once per output: `to_json_all` and
`to_text_all` write an output's polynomials from one table of their monomials;
`to_json` and `__str__` are their one-polynomial cases.  The writers write
each distinct polynomial object once, and the table sorts one row layout (a
row's monomials in table order) per distinct monomial sequence, not one per
row; the JSON writer fills one `%` template per layout.  `rename_all` renames
each distinct monomial of a list of polynomials once.  Values are treated as
immutable after construction, so they are safe to share, hash and memoise.  No
other module depends on this layout: they read monomials through the query and
monomial-view methods and build them from `var`.

The registry lives as long as the process and never shrinks, and a variable
registered later gets a higher field, so monomials holding it are wider
integers.  Callers therefore build a variable only once its index is known
to be in range (the CLI checks operand and element variables first).
"""

from __future__ import annotations

import json
from functools import cache, reduce
from operator import itemgetter, mul, or_
from typing import Callable, Iterable, Mapping

from .errors import LambdaOpsError

_WIDTH = 16
_FIELD = (1 << _WIDTH) - 1
MAX_EXPONENT = (1 << (_WIDTH - 1)) - 1

# The slot registry: a variable's field starts at bit 16 * (its slot number).
_SHIFTS: dict[tuple[str, int], int] = {}  # variable -> bit offset of its field
_VARS: list[tuple[str, int]] = []  # slot number -> variable
_FAMILY_SHIFTS: dict[str, dict[int, int]] = {}  # family -> {index: bit offset}
_GUARD = 0  # the guard (top) bit of every registered field
_MASKS: dict[tuple[str, int | None], int] = {}  # see _family_mask(); cleared on registration


def _shift(var: tuple[str, int]) -> int:
    """The bit offset of the field of `var`, registering it on first use."""
    sh = _SHIFTS.get(var)
    if sh is None:
        global _GUARD
        sh = _SHIFTS[var] = len(_VARS) * _WIDTH
        _VARS.append(var)
        _FAMILY_SHIFTS.setdefault(var[0], {})[var[1]] = sh
        _GUARD |= 1 << (sh + _WIDTH - 1)
        _MASKS.clear()
    return sh


def _overflow():
    raise LambdaOpsError(f"exponent above {MAX_EXPONENT}, the bound of a packed monomial")


def _fields(m: int) -> list[tuple[int, int]]:
    """(bit offset, exponent) of each variable of the monomial m."""
    out = []
    while m:
        sh = ((m & -m).bit_length() - 1) & -_WIDTH  # the lowest nonzero field
        e = (m >> sh) & _FIELD
        m ^= e << sh
        out.append((sh, e))
    return out


def _decode(m: int) -> tuple:
    """The monomial m as sorted (family, index, exponent) triples: the loop
    of `_fields`, building the triples in place."""
    out = []
    while m:
        sh = ((m & -m).bit_length() - 1) & -_WIDTH
        e = (m >> sh) & _FIELD
        m ^= e << sh
        out.append(_VARS[sh // _WIDTH] + (e,))
    out.sort()
    return tuple(out)


def _ordered(monos: Iterable[int]) -> dict[int, tuple]:
    """The canonical monomial order: each monomial of `monos` mapped to its
    decoded form, keyed in order of decoded form."""
    return dict(sorted([(m, _decode(m)) for m in monos], key=itemgetter(1)))


def _table(polys: list["IntPoly"]) -> tuple[dict[int, tuple], list, dict[int, tuple]]:
    """One table of the monomials of one output: their `_ordered` decoded
    forms; the row layouts (a row's monomials in table order), one per
    distinct monomial sequence, as rows built alike share one and a tuple
    keys faster than a set; and, keyed by id, a (term map, layout number) row
    per distinct polynomial object.  Ranks sort a layout that is part of the
    table, built only if one is."""
    distinct = {id(p): p._terms for p in polys}
    monos: dict[int, int] = {}  # in first-seen order: term maps are often near sorted
    for terms in distinct.values():
        monos.update(terms)
    decoded = _ordered(monos)
    numbers: dict[tuple | None, int] = {}  # monomial sequence -> layout number; None: the table
    layouts: list = []
    rows = {}
    rank = None
    for key, terms in distinct.items():
        seq = tuple(terms) if len(terms) < len(decoded) else None
        n = numbers.get(seq)
        if n is None:
            if seq is not None and rank is None:
                rank = {m: r for r, m in enumerate(decoded)}
            n = numbers[seq] = len(layouts)
            layouts.append(decoded if seq is None else sorted(terms, key=rank.__getitem__))
        rows[key] = (terms, n)
    return decoded, layouts, rows


# The text and the JSON text of a (family, index, exponent) factor, such as `L3^2`
_text_factor = cache(lambda v: f"{v[0]}{v[1]}" if v[2] == 1 else f"{v[0]}{v[1]}^{v[2]}")
_json_factor = cache(lambda v: f"[{json.dumps(v[0])},{v[1]},{v[2]}]")


def _encode(mono: Iterable[tuple[str, int, int]]) -> int:
    """Pack (family, index, exponent) triples, in any order, into a monomial."""
    m = 0
    for (f, i, e) in mono:
        if e < 0:
            raise ValueError("exponents must be nonnegative")
        if e > MAX_EXPONENT:
            _overflow()
        m += e << _shift((f, i))
    if m & _GUARD:  # a variable listed twice
        _overflow()
    return m


def _family_mask(family: str, above: int | None = None) -> int:
    """The fields of the registered `family` variables (of index > `above`)."""
    mask = _MASKS.get((family, above))
    if mask is None:
        mask = 0
        for i, sh in _FAMILY_SHIFTS.get(family, {}).items():
            if above is None or i > above:
                mask |= _FIELD << sh
        _MASKS[(family, above)] = mask
    return mask


def _monomial_value(memo: dict, m: int, assign: Mapping, times: Callable):
    """The value of the monomial m: one `times` from the value of m less its
    lowest factor, built first when missing.  Each value built is kept in `memo`."""
    todo = []
    while m not in memo:
        sh = ((m & -m).bit_length() - 1) & -_WIDTH
        todo.append((m, _VARS[sh // _WIDTH]))
        m -= 1 << sh
    v = memo[m]
    for m, var in reversed(todo):
        v = memo[m] = times(v, assign[var])
    return v


def _add_product(out: dict, a: Mapping[int, int], b: Mapping[int, int]) -> None:
    """Add the product of the term maps `a` and `b` into `out` in place,
    dropping every coefficient that cancels to zero."""
    guard = _GUARD
    get = out.get
    if len(a) > len(b):  # the shorter map in the outer loop: fewer inner loops to start
        a, b = b, a
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            if m & guard:
                _overflow()
            v = get(m, 0) + ca * cb
            if v:
                out[m] = v
            else:
                del out[m]


class IntPoly:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple, int] | None = None):
        """From a map of (family, index, exponent) triple tuples to coefficients."""
        out: dict[int, int] = {}
        for mono, c in (terms or {}).items():
            if c:
                m = _encode(mono)
                v = out.get(m, 0) + c
                if v:
                    out[m] = v
                else:
                    del out[m]
        self._terms = out
        self._hash = None

    @classmethod
    def _trusted(cls, terms: dict[int, int]) -> "IntPoly":
        """Wrap a packed term map that holds no zero coefficient, without
        copying or filtering it; the caller hands the dict over."""
        p = object.__new__(cls)
        p._terms = terms
        p._hash = None
        return p

    @property
    def terms(self) -> dict[tuple, int]:
        """A fresh copy of the term map, keyed by sorted (family, index,
        exponent) triple tuples."""
        return {_decode(m): c for m, c in self._terms.items()}

    # -- constructors -------------------------------------------------

    @staticmethod
    def var(family: str, index: int, exp: int = 1) -> "IntPoly":
        if exp < 0:
            raise ValueError("exponents must be nonnegative")
        if exp == 0:
            return IntPoly.one()
        if exp > MAX_EXPONENT:
            _overflow()
        return IntPoly._trusted({exp << _shift((family, index)): 1})

    @staticmethod
    def const(c: int) -> "IntPoly":
        return IntPoly._trusted({0: c} if c else {})

    @staticmethod
    def zero() -> "IntPoly":
        return IntPoly._trusted({})

    @staticmethod
    def one() -> "IntPoly":
        return IntPoly._trusted({0: 1})

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "IntPoly":
        other = _coerce(other)
        if not other._terms:
            return self
        out = dict(self._terms)
        get = out.get
        for m, c in other._terms.items():
            v = get(m, 0) + c
            if v:
                out[m] = v
            else:
                del out[m]
        return IntPoly._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly._trusted({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "IntPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "IntPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            if other == 0:
                return IntPoly._trusted({})
            return IntPoly._trusted({m: c * other for m, c in self._terms.items()})
        out: dict[int, int] = {}
        _add_product(out, self._terms, other._terms)
        return IntPoly._trusted(out)

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(pairs: Iterable[tuple["IntPoly", "IntPoly"]]) -> "IntPoly":
        """The sum of a * b over the pairs (a, b), accumulated in one term map."""
        out: dict[int, int] = {}
        for a, b in pairs:
            _add_product(out, a._terms, b._terms)
        return IntPoly._trusted(out)

    @staticmethod
    def linear_combination(pairs: Iterable[tuple[int, "IntPoly"]]) -> "IntPoly":
        """The sum of c * p over the (integer, polynomial) pairs (c, p),
        accumulated in one term map: no monomial is added, so no guard test."""
        out: dict[int, int] = {}
        get = out.get
        for c, p in pairs:
            if c:
                for m, v in p._terms.items():
                    v = get(m, 0) + c * v
                    if v:
                        out[m] = v
                    else:
                        del out[m]
        return IntPoly._trusted(out)

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        # repeated multiplication beats squaring on sparse polynomials (Fateman 1974)
        return reduce(mul, [self] * n, IntPoly.one())

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return isinstance(other, IntPoly) and self._terms == other._terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self._terms.items()))
        return h

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- queries --------------------------------------------------------

    def key(self):
        """Canonical hashable form: the decoded term list sorted by monomial.
        Hash the polynomial itself where order does not matter; this form is
        the `_COMPOSE_CACHE` key that `perfbench/tracer.py` rebuilds."""
        return tuple([(d, self._terms[m]) for m, d in _ordered(self._terms).items()])

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def constant_term(self) -> int:
        return self._terms.get(0, 0)

    def coefficient(self, mono: "IntPoly") -> int:
        """The coefficient of the monomial `mono` (a one-term polynomial)."""
        ((m, _),) = mono._terms.items()
        return self._terms.get(m, 0)

    def variables(self) -> dict[tuple[str, int], int]:
        """Each variable that occurs, mapped to its highest exponent."""
        terms = self._terms
        return {_VARS[sh // _WIDTH]: max([(m >> sh) & _FIELD for m in terms])
                for sh, _ in _fields(reduce(or_, terms, 0))}

    def indices(self, family: str) -> list[int]:
        """The sorted indices of the `family` variables that occur, from one OR pass."""
        present = reduce(or_, self._terms, 0) & _family_mask(family)
        return sorted([_VARS[sh // _WIDTH][1] for sh, _ in _fields(present)])

    def part_of_family_degree(self, family: str, low: int, high: int | None = None) -> "IntPoly":
        """Keep the monomials whose total degree in `family` lies in
        [low, high]; high defaults to low."""
        high = low if high is None else high
        mask = _family_mask(family)
        return IntPoly._trusted({
            m: c for m, c in self._terms.items()
            if low <= sum(e for _, e in _fields(m & mask)) <= high
        })

    def weight(self, family: str) -> int:
        """Max over monomials of sum(index * exponent) within `family`."""
        mask = _family_mask(family)
        best = 0
        for m in self._terms:
            w = sum(_VARS[sh // _WIDTH][1] * e for sh, e in _fields(m & mask))
            best = max(best, w)
        return best

    # -- monomial views -------------------------------------------------
    # A monomial handed out is a one-term polynomial with coefficient 1, so
    # no caller depends on how monomials are stored.

    def sorted_terms(self) -> list[tuple["IntPoly", int]]:
        """The terms as (monomial, coefficient) pairs, sorted by monomial."""
        return [(IntPoly._trusted({m: 1}), self._terms[m]) for m in _ordered(self._terms)]

    def collect(self, family: str) -> list[tuple["IntPoly", "IntPoly"]]:
        """Group the terms by their `family` part: (monomial in `family`,
        coefficient polynomial in the other families) pairs, sorted by
        monomial."""
        mask = _family_mask(family)
        groups: dict[int, dict[int, int]] = {}
        for m, c in self._terms.items():
            inside = m & mask
            groups.setdefault(inside, {})[m ^ inside] = c
        return [(IntPoly._trusted({m: 1}), IntPoly._trusted(groups[m]))
                for m in _ordered(groups)]

    def linear_coefficients(self, family: str) -> dict[int, int]:
        """{index: coefficient} of the terms that are a single `family`
        variable to the first power."""
        out = {}
        for m, c in self._terms.items():
            # one variable to the first power: a single bit at a field's start
            if m and not m & (m - 1) and not (m.bit_length() - 1) % _WIDTH:
                f, i = _VARS[(m.bit_length() - 1) // _WIDTH]
                if f == family:
                    out[i] = c
        return out

    def div_exact(self, n: int) -> "IntPoly":
        """Divide every coefficient by n; ValueError unless each one divides."""
        out: dict[int, int] = {}
        for m, c in self._terms.items():
            quot, rem = divmod(c, n)
            if rem:
                raise ValueError(f"coefficient {c} of {_decode(m)} is not divisible by {n}")
            out[m] = quot
        return IntPoly._trusted(out)

    # -- structural maps ------------------------------------------------

    def map_terms(self, fn: Callable[[int, int], tuple[int, int]]) -> "IntPoly":
        """Apply fn(monomial, coefficient) -> (monomial, coefficient) to every
        term of the packed term map, adding terms that land on one monomial."""
        out: dict[int, int] = {}
        get = out.get
        for m, c in self._terms.items():
            m2, c2 = fn(m, c)
            v = get(m2, 0) + c2
            if v:
                out[m2] = v
            else:
                out.pop(m2, None)
        return IntPoly._trusted(out)

    def rename_family(self, src: str, dst: str) -> "IntPoly":
        """The one-polynomial case of `rename_all`: `src` variables become
        `dst` variables of the same index."""
        return IntPoly.rename_all([self], {src: dst})[0]

    @staticmethod
    def rename_all(polys: list["IntPoly"], names: Mapping[str, str]) -> list["IntPoly"]:
        """Each polynomial with the variables of every family `src` of `names`
        renamed at once to names[src] at the same index, so that {"T1": "T2",
        "T2": "T1"} exchanges two families.  Each distinct monomial of the
        list is decoded and renamed once; a polynomial two of whose monomials
        meet, which its length shows, has their terms added."""
        mask = sum(map(_family_mask, names))  # the families' masks are disjoint

        def renamed(m):
            part = m & mask
            if not part:
                return m
            m ^= part
            for sh, e in _fields(part):
                f, i = _VARS[sh // _WIDTH]
                m += e << _shift((names[f], i))
            if m & _GUARD:
                _overflow()
            return m

        monos: dict[int, int] = {}
        for p in polys:
            monos.update(p._terms)
        moved = {m: renamed(m) for m in monos}
        out = []
        for p in polys:
            terms = {moved[m]: c for m, c in p._terms.items()}
            out.append(IntPoly._trusted(terms) if len(terms) == len(p._terms)
                       else p.map_terms(lambda m, c: (moved[m], c)))
        return out

    def truncate_family(self, family: str, max_index: int) -> "IntPoly":
        """Drop every monomial containing a `family` variable above `max_index`."""
        mask = _family_mask(family, max_index)
        terms = self._terms
        if not mask:
            return self
        out = {m: c for m, c in terms.items() if not m & mask}
        return self if len(out) == len(terms) else IntPoly._trusted(out)

    def substitute(self, images: Mapping[tuple[str, int], "IntPoly | int"]) -> "IntPoly":
        """Simultaneously substitute polynomials for variables.

        Variables absent from `images` are left untouched.  Substitution is
        a ring map, so the result is exact.
        """
        imgs: dict[int, IntPoly] = {}  # bit offset -> image
        mask = 0
        for v, p in images.items():
            sh = _SHIFTS.get(v)
            if sh is not None:  # else no monomial holds v
                imgs[sh] = _coerce(p)
                mask |= _FIELD << sh
        pow_cache: dict[int, dict[int, int]] = {}  # packed power of one variable -> image
        out: dict[int, int] = {}
        for m, c in self._terms.items():
            # the untouched variables and the coefficient form the first factor
            acc = {m & ~mask: c}
            factors = []
            for sh, e in _fields(m & mask):
                p = pow_cache.get(e << sh)
                if p is None:
                    p = pow_cache[e << sh] = (imgs[sh] if e == 1 else imgs[sh] ** e)._terms
                factors.append(p)
            # multiply all but the last factor into acc, then add acc times
            # the last factor straight into the result
            *head, last = factors or [{0: 1}]
            for p in head:
                acc, prev = {}, acc
                _add_product(acc, prev, p)
            if not out and len(acc) == 1 and 0 in acc:  # `last` scaled: no guard test
                c = acc[0]
                out = dict(last) if c == 1 else {mm: c * cc for mm, cc in last.items()}
            else:
                _add_product(out, acc, last)
        return IntPoly._trusted(out)

    def substitute_family(self, family: str, image: Callable[[int], "IntPoly | int"]) -> "IntPoly":
        """The ring map sending each `family` variable of index k to image(k).

        `image` is called only for the indices that occur in the polynomial.
        """
        return self.substitute({(family, k): image(k) for k in self.indices(family)})

    def evaluate(self, assign: Mapping[tuple[str, int], object], ring=None, memo=None):
        """Evaluate with every variable assigned.  The values are integers,
        or elements of `ring`, an object with from_int, mul and combine, which
        adds up the terms (such as a lambda-ring model: see
        `LambdaRingModel.combine`).  `memo` keeps the value of each monomial:
        pass one memo to every evaluation at one assignment, as
        `models.poly_eval_in_model` does at lambda values; without one, a
        fresh memo still shares prefixes inside this polynomial.  `assign` is
        read only for the monomials the memo misses."""
        times = mul if ring is None else ring.mul
        memo = {} if memo is None else memo
        if not memo:
            memo[0] = 1 if ring is None else ring.from_int(1)
        terms = self._terms
        values = [memo[m] if m in memo else _monomial_value(memo, m, assign, times) for m in terms]
        if ring is None:
            return sum(map(times, terms.values(), values))
        return ring.combine(terms.values(), values)

    # -- serialisation ----------------------------------------------------

    def __str__(self) -> str:
        """The one-polynomial case of `to_text_all`."""
        return IntPoly.to_text_all([self])[0]

    __repr__ = __str__

    @staticmethod
    def to_text_all(polys: list["IntPoly"]) -> list[str]:
        """The text of each polynomial of one output, such as `L1^2 - 2*L2`,
        written from one table of the monomials they hold (see `_table`):
        each distinct monomial gets the text of its factors once."""
        decoded, layouts, rows = _table(polys)
        factors = {m: "*".join(map(_text_factor, mono)) for m, mono in decoded.items()}
        written = {key: IntPoly.sum_text((terms[m], factors[m]) for m in layouts[n])
                   for key, (terms, n) in rows.items()}
        return [written[id(p)] for p in polys]

    @staticmethod
    def sum_text(terms: Iterable[tuple[int, str]]) -> str:
        """The text `c1*f1 - f2 + ...` of (coefficient, factor text) pairs in
        the given order, an empty factor text being the unit: the one rule for
        signs and `c*` prefixes of every text writer."""
        parts = []
        for c, f in terms:
            body = f"{abs(c)}*{f}" if abs(c) != 1 and f else f or str(abs(c))
            parts.append(f" - {body}" if c < 0 else f" + {body}")
        text = "".join(parts)
        return ("-" if text[1] == "-" else "") + text[3:] if text else "0"

    def to_obj(self) -> list:
        """JSON-ready form: sorted terms, decimal-string coefficients."""
        terms = self._terms
        return [{"mono": [[f, i, e] for (f, i, e) in d], "coeff": str(terms[m])}
                for m, d in _ordered(terms).items()]

    def to_json(self) -> str:
        """The JSON text of `to_obj()` with sorted keys and no spaces: the
        bytes of json.dumps(p.to_obj(), sort_keys=True, separators=(",", ":")).
        This is the one-polynomial case of `to_json_all`."""
        return IntPoly.to_json_all([self])[0]

    @staticmethod
    def to_json_all(polys: list["IntPoly"]) -> list[str]:
        """The `to_json()` text of each polynomial of one output, written
        from one table of the monomials they hold (see `_table`): each
        distinct monomial gets its `{"coeff":"%d","mono":[...]}` text once,
        with any `%` of a family name doubled, and each row layout one
        template of them, filled with a row's coefficients."""
        decoded, layouts, rows = _table(polys)
        term = {m: '{"coeff":"%d","mono":[' + ",".join(map(_json_factor, mono)).replace("%", "%%")
                + "]}" for m, mono in decoded.items()}
        templates = ["[" + ",".join(map(term.__getitem__, ms)) + "]" for ms in layouts]
        written = {key: templates[n] % tuple(map(terms.__getitem__, layouts[n]))
                   for key, (terms, n) in rows.items()}
        return [written[id(p)] for p in polys]


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
    as a constant.  Its text is that of its value unless it says otherwise."""

    __slots__ = ()
    _mismatch = ValueError  # raised when two operands carry different levels

    def __init_subclass__(cls, value: str, level: str, **kwargs):
        super().__init_subclass__(**kwargs)
        # alias the subclass's slot descriptors, so reads cost a slot lookup
        cls._value = cls.__dict__[value]
        cls._level = cls.__dict__[level]

    def __str__(self):
        return str(self._value)

    def __repr__(self):
        return str(self)

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
