"""One-line operand micro-syntax for the command line.

Atoms: chi(d), const(c), id, identity, L<k> (ring generators), l<k> (odd
generators), integers, and in model-element mode u and x<i>.  Operators:
+ and - at the lowest tier, then * and the tensor sign (either the unicode
one or @).  Kinds are inferred and promoted: a bare ring element L2 used as
an operation means 1 (x) L2.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .evenops import EvenOp, identity_op
from .intpoly import IntPoly
from .kbu import KBUElem, gen
from .loopgrade import lgen
from .setzz import FnConst, FnProd, FnSum, chi, const, IDENT


class ParseError(ValueError):
    pass


class OutsideModel(ParseError):
    """An element names a variable that its model does not have."""


# Parentheses and unary minus signs together may nest this deep; each level
# costs the recursive-descent parser up to three stack frames.
MAX_NESTING = 200
# An operand may hold this many binary operators (+, -, *, @) in all.  A chain
# of them folds into a left-deep function tree, which is evaluated and
# serialised recursively, so the bound covers chains nested in parentheses
# as well as a single long chain.
MAX_OPERATORS = 200


_TOKEN = re.compile(
    r"\s*(?:(?P<int>-?\d+)|(?P<name>[A-Za-z]+\d*)|(?P<op>[()+*@⊗∘-]))"
)


def tokenise(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"bad character at {text[pos:]!r}")
        tok = m.group("int") or m.group("name") or m.group("op")
        # a bare minus becomes unary/binary; negative literals only after '(' or operators
        if m.group("int") and tok.startswith("-") and out and (
            out[-1] == ")" or out[-1][0].isdigit() or out[-1][0].isalpha()
        ):
            out.append("-")
            out.append(tok[1:])
        else:
            out.append(tok)
        pos = m.end()
    return out


class Val(NamedTuple):
    kind: str  # int | fn | kbu | odd | even | poly
    payload: object


class OperandParser:
    def __init__(self, tokens: list[str], trunc: int, window: int,
                 elements: set[tuple[str, int]] | None = None):
        self.toks = tokens
        self.pos = 0
        self.trunc = trunc
        self.window = window
        self.elements = elements
        self.depth = 0
        self.operators = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def parse(self) -> Val:
        v = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.peek()!r}")
        return v

    def binary_operator(self) -> str:
        self.operators += 1
        if self.operators > MAX_OPERATORS:
            raise ParseError(f"operand holds more than {MAX_OPERATORS} binary operators")
        return self.take()

    def expr(self) -> Val:
        v = self.term()
        while self.peek() in ("+", "-"):
            op = self.binary_operator()
            w = self.term()
            v = self.add(v, w if op == "+" else self.scale(-1, w))
        return v

    def term(self) -> Val:
        v = self.factor()
        while self.peek() in ("*", "@", "⊗"):
            op = self.binary_operator()
            w = self.factor()
            v = self.tensor(v, w) if op in ("@", "⊗") else self.mul(v, w)
        return v

    def factor(self) -> Val:
        tok = self.peek()
        if tok in ("-", "("):
            self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"operand nests deeper than {MAX_NESTING} parentheses and signs")
            if tok == "-":
                v = self.scale(-1, self.factor())
            else:
                v = self.expr()
                self.expect(")")
            self.depth -= 1
            return v
        if tok is None:
            raise ParseError("unexpected end of input")
        self.take()
        if re.fullmatch(r"-?\d+", tok):
            return Val("int", int(tok))
        return self.atom(tok)

    def atom(self, name: str) -> Val:
        if name == "chi":
            return Val("fn", chi(self.int_argument(name)))
        if name == "const":
            return Val("fn", const(self.int_argument(name)))
        if name == "id":
            return Val("fn", IDENT)
        if name == "identity":
            return Val("even", identity_op(self.trunc, self.window))
        m = re.fullmatch(r"L(\d+)", name)
        if m:
            return Val("kbu", gen(int(m.group(1)), self.trunc))
        m = re.fullmatch(r"l(\d+)", name)
        if m:
            return Val("odd", lgen(int(m.group(1)), self.trunc))
        if self.elements is not None:
            m = re.fullmatch(r"x(\d+)", name)
            var = ("u", 1) if name in ("u", "u1") else ("x", int(m.group(1))) if m else None
            if var is not None:
                if var not in self.elements:
                    raise OutsideModel(name)
                return Val("poly", IntPoly.var(*var))
        raise ParseError(f"unknown symbol {name!r}")

    def int_argument(self, name: str) -> int:
        """Read the parenthesised integer argument of `name(...)`."""
        self.expect("(")
        tok = self.take()
        if tok is None or not re.fullmatch(r"-?\d+", tok):
            raise ParseError(f"{name}( expects an integer argument, got {tok!r}")
        self.expect(")")
        return int(tok)

    # -- combination rules -------------------------------------------------

    def scale(self, c: int, v: Val) -> Val:
        if v.kind == "int":
            return Val("int", c * v.payload)
        if v.kind == "fn":
            return Val("fn", FnProd((FnConst(c), v.payload)))
        return Val(v.kind, c * v.payload)

    def promote_even(self, v: Val) -> Val:
        if v.kind == "even":
            return v
        if v.kind == "int":
            return Val("even", EvenOp.from_pairs(
                [(const(v.payload), KBUElem.from_int(1, self.trunc))],
                self.trunc, self.window))
        if v.kind == "fn":
            return Val("even", EvenOp.from_pairs(
                [(v.payload, KBUElem.from_int(1, self.trunc))],
                self.trunc, self.window))
        if v.kind == "kbu":
            return Val("even", EvenOp.from_pairs(
                [(const(1), v.payload)], self.trunc, self.window))
        article = "an" if v.kind[0] in "aeiou" else "a"
        raise ParseError(f"cannot use {article} {v.kind} value as an even operation")

    def add(self, a: Val, b: Val) -> Val:
        if a.kind == b.kind:
            if a.kind == "fn":
                return Val("fn", FnSum((a.payload, b.payload)))
            return Val(a.kind, a.payload + b.payload)
        kinds = {a.kind, b.kind}
        if kinds == {"int", "kbu"} or kinds == {"int", "odd"} or kinds == {"int", "poly"}:
            other = a if a.kind != "int" else b
            num = a if a.kind == "int" else b
            return Val(other.kind, other.payload + num.payload)
        if "even" in kinds or kinds == {"fn", "kbu"}:
            return Val("even", self.promote_even(a).payload + self.promote_even(b).payload)
        if kinds == {"int", "fn"}:
            fa = a.payload if a.kind == "fn" else FnConst(a.payload)
            fb = b.payload if b.kind == "fn" else FnConst(b.payload)
            return Val("fn", FnSum((fa, fb)))
        hint = " (parity mismatch?)" if "odd" in kinds else ""
        raise ParseError(f"cannot add {a.kind} and {b.kind}{hint}")

    def mul(self, a: Val, b: Val) -> Val:
        if a.kind == "int":
            return self.scale(a.payload, b)
        if b.kind == "int":
            return self.scale(b.payload, a)
        if a.kind == b.kind:
            if a.kind == "fn":
                return Val("fn", FnProd((a.payload, b.payload)))
            return Val(a.kind, a.payload * b.payload)
        if {a.kind, b.kind} == {"even"} or "even" in (a.kind, b.kind):
            return Val("even", self.promote_even(a).payload * self.promote_even(b).payload)
        raise ParseError(f"cannot multiply {a.kind} and {b.kind}")

    def tensor(self, a: Val, b: Val) -> Val:
        if b.kind == "int":
            b = Val("kbu", KBUElem.from_int(b.payload, self.trunc))
        if a.kind == "int":
            a = Val("fn", const(a.payload))
        if a.kind == "fn" and b.kind == "kbu":
            return Val("even", EvenOp.from_pairs(
                [(a.payload, b.payload)], self.trunc, self.window))
        raise ParseError(
            f"tensor expects function (x) ring element, got {a.kind} (x) {b.kind}")


def parse_operand(text: str, trunc: int, window: int) -> Val:
    return OperandParser(tokenise(text), trunc, window).parse()


def parse_element(text: str, trunc: int, window: int, variables: set[tuple[str, int]]) -> Val:
    """Read a model element whose polynomial variables lie in `variables`;
    OutsideModel if it names another, before that variable is built."""
    return OperandParser(tokenise(text), trunc, window, elements=variables).parse()
