"""Integer exterior algebra on indexed odd generators.

Monomials are strictly increasing tuples of generator keys; the wedge of
overlapping monomials vanishes, and merging counts transpositions for the
sign.  The empty monomial is the unit, so elements may carry an integer unit
part.  Elements are immutable after construction: `terms` hands out a fresh
copy of the term map, so memoised elements stay intact.
"""

from __future__ import annotations

from .intpoly import IntPoly


def wedge_mono(a: tuple, b: tuple):
    """Merge two strictly increasing tuples; return (sign, merged) or None
    when an index repeats."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    out = []
    sign = 1
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining na - i generators of a
            if (na - i) % 2 == 1:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


class ExtElem:
    """Integer-linear combination of exterior monomials (unit part allowed).

    Generator keys only need a total order: plain indices for l_k, and
    (leg, index) pairs for the two legs of a tensor square."""

    __slots__ = ("_coeffs",)

    def __init__(self, terms: dict[tuple, int] | None = None):
        self._coeffs = {m: c for m, c in (terms or {}).items() if c}

    @property
    def terms(self) -> dict[tuple, int]:
        """A fresh copy of the map from exterior monomials to coefficients."""
        return dict(self._coeffs)

    @staticmethod
    def unit(c: int = 1) -> "ExtElem":
        return ExtElem({(): c} if c else {})

    @staticmethod
    def generator(i) -> "ExtElem":
        return ExtElem({(i,): 1})

    @staticmethod
    def linear(coeffs: dict) -> "ExtElem":
        """The sum of c * generator(i) over the items (i, c) of coeffs."""
        return ExtElem({(i,): c for i, c in coeffs.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = ExtElem.unit(other)
        out = dict(self._coeffs)
        for m, c in other._coeffs.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return ExtElem(out)

    __radd__ = __add__

    def __neg__(self):
        return ExtElem({m: -c for m, c in self._coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = ExtElem.unit(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return ExtElem({m: c * other for m, c in self._coeffs.items()})
        out: dict[tuple, int] = {}
        for ma, ca in self._coeffs.items():
            for mb, cb in other._coeffs.items():
                merged = wedge_mono(ma, mb)
                if merged is None:
                    continue
                sign, m = merged
                v = out.get(m, 0) + sign * ca * cb
                if v:
                    out[m] = v
                else:
                    del out[m]
        return ExtElem(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self._coeffs == ExtElem.unit(other)._coeffs
        return isinstance(other, ExtElem) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(tuple(sorted(self._coeffs.items())))

    def __bool__(self):
        return bool(self._coeffs)

    @property
    def is_zero(self):
        return not self._coeffs

    def unit_part(self) -> int:
        return self._coeffs.get((), 0)

    def linear_coefficients(self) -> dict:
        """Generator key -> coefficient of that generator (the inverse of linear)."""
        return {m[0]: c for m, c in self._coeffs.items() if len(m) == 1}

    def sorted_terms(self):
        return sorted(self._coeffs.items(), key=lambda t: (len(t[0]), t[0]))

    def substitute(self, image) -> "ExtElem":
        """The algebra map sending each generator of key i to image(i)."""
        total = ExtElem()
        for mono, c in self._coeffs.items():
            acc = ExtElem.unit(c)
            for i in mono:
                acc = acc * image(i)
            total = total + acc
        return total

    def truncate(self, max_index: int) -> "ExtElem":
        return ExtElem(
            {m: c for m, c in self._coeffs.items() if not m or m[-1] <= max_index}
        )

    def render(self, symbol: str) -> str:
        return IntPoly.sum_text((c, "*".join(f"{symbol}{i}" for i in m))
                                for m, c in self.sorted_terms())
