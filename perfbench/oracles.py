"""Output checks that do not share the code path under test.

* upoly: the printed polynomial is evaluated with plain integers at the
  elementary symmetric values of seeded integer lines and compared with the
  brute-force quantity it stands for (integer-only, as in the test suite's
  helpers, copied here so the benchmark does not import the test tree).
* check: the suite report must pass on every property.
* coprod: every printed tensor entry, and a few absent ones, is paired
  against seeded samples of the split:2 and sphere models and compared with
  the operation's action on the product (or sum) of the samples.

Each check returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import itertools
import json
import math
import random

from lambdaops.errors import LambdaOpsError

# -- integer-only oracles ----------------------------------------------------


def esym(vals, k: int) -> int:
    """Elementary symmetric polynomial of an integer list, by the standard DP."""
    if k == 0:
        return 1
    if k > len(vals):
        return 0
    row = [1] + [0] * k
    for v in vals:
        for j in range(k, 0, -1):
            row[j] += v * row[j - 1]
    return row[k]


def evaluate(terms: list, assign: dict) -> int:
    """Evaluate a serialised polynomial at an integer point."""
    total = 0
    for term in terms:
        value = int(term["coeff"])
        for family, index, exp in term["mono"]:
            value *= assign[(family, index)] ** exp
        total += value
    return total


def _load(stdout: bytes):
    text = stdout.decode("utf-8")
    if text.count("\n") != 1 or not text.endswith("\n"):
        raise ValueError("expected exactly one line of output")
    return json.loads(text)


def check_upoly(job: dict, stdout: bytes) -> str | None:
    payload = _load(stdout)
    if (payload.get("command"), payload.get("kind"), payload.get("indices")) != \
            ("upoly", job["kind"], job["indices"]):
        return "payload does not echo the request"
    terms = payload["result"]
    for point in job["points"]:
        if job["kind"] == "pk":
            k = job["indices"][0]
            a, b = point["a"], point["b"]
            assign = {("x", i): esym(a, i) for i in range(1, k + 1)}
            assign |= {("y", j): esym(b, j) for j in range(1, k + 1)}
            want = esym([x * y for x in a for y in b], k)
        elif job["kind"] == "pij":
            i, j = job["indices"]
            lines = point["lines"]
            assign = {("L", m): esym(lines, m) for m in range(1, i * j + 1)}
            want = esym([math.prod(s) for s in itertools.combinations(lines, j)], i)
        else:
            k = job["indices"][0]
            lines = point["lines"]
            assign = {("L", m): esym(lines, m) for m in range(1, k + 1)}
            want = sum(v ** k for v in lines)
        try:
            got = evaluate(terms, assign)
        except KeyError as exc:
            return f"unexpected variable {exc}"
        if got != want:
            return f"value {got} != {want} at {point}"
    return None


def check_suite(job: dict, stdout: bytes) -> str | None:
    report = _load(stdout)
    if report.get("suite") != job["suite"] or report.get("config") != job["config"]:
        return "report does not echo the request"
    if not report["properties"]:
        return "report has no properties"
    for prop in report["properties"]:
        if not prop["pass"] or prop["instances"] < 1 or prop["counterexample"]:
            return f"property {prop['id']} failed"
    if report["pass"] is not True:
        return "suite verdict is FAIL"
    return None


# -- coproducts against the action ---------------------------------------------

# Reduced (augmentation-zero) samples of small rank, so that the action's
# values stay small polynomials: sums of line classes minus their rank in
# split:2 (variables x1, x2), and multiples of the reduced class u in sphere.
REDUCED_SAMPLES = {
    "split:2": [{(("x", 1, 1),): 1, (): -1},
                {(("x", 1, 1),): 1, (("x", 2, 1),): 1, (): -2},
                {(("x", 1, 1), ("x", 2, 1)): 1, (): -1},
                {(("x", 1, 1),): 1, (("x", 2, 1),): -1},
                {(("x", 1, 2),): 1, (("x", 2, 1),): 1, (): -2}],
    "sphere": [{(("u", 1, 1),): c} for c in (1, -1, 2, -2, 3)],
}


def _pairing(terms: list, model, lams: dict, memo: dict):
    """Evaluate a serialised polynomial in the model, sending the variable
    (family, k) to lams[family][k]; monomial values are memoised."""
    total = model.from_int(0)
    for term in terms:
        mono = tuple(map(tuple, term["mono"]))
        value = memo.get(mono)
        if value is None:
            value = model.from_int(1)
            for family, index, exp in mono:
                for _ in range(exp):
                    value = model.mul(value, lams[family][index])
            memo[mono] = value
        total = model.add(total, model.mul(model.from_int(int(term["coeff"])), value))
    return total


def _absent_keys(entries: set, kind: str, window: int, rng: random.Random, count: int):
    """A few index pairs with no printed entry whose combined augmentation
    stays inside the window: there the pairing must be zero."""
    span = range(-window, window + 1)
    keys = [(i, j) for i in span for j in span if (i, j) not in entries
            and abs(i * j if kind == "mul" else i + j) <= window]
    return rng.sample(keys, min(count, len(keys)))


def check_coprod(job: dict, stdout: bytes) -> str | None:
    from lambdaops.evenops import act
    from lambdaops.intpoly import IntPoly
    from lambdaops.models import get_model
    from lambdaops.parser import OperandParser, parse_operand

    payload = _load(stdout)
    trunc, window, kind = job["trunc"], job["window"], job["kind"]
    if (payload.get("command"), payload.get("kind"), payload.get("trunc")) != \
            ("coprod", kind, trunc):
        return "payload does not echo the request"
    r = OperandParser([], trunc, window).promote_even(
        parse_operand(job["op"], trunc, window)).payload
    rng = random.Random(job["sample_seed"])
    for name, pool in REDUCED_SAMPLES.items():
        model = get_model(name)
        combine = model.mul if kind == "mul" else model.add
        ra, rb = (IntPoly(terms) for terms in rng.sample(pool, 2))
        lam_a = [None] + [model.lam(k, ra) for k in range(1, trunc + 1)]
        lam_b = [None] + [model.lam(k, rb) for k in range(1, trunc + 1)]
        if payload["carrier"] == "ring":
            # a ring element acts on reduced classes, so pair at eps = 0
            got = model.from_int(0)
            for left, right in payload["result"]:
                got = model.add(got, model.mul(_pairing(left, model, {"L": lam_a}, {}),
                                               _pairing(right, model, {"L": lam_b}, {})))
            if not model.eq(got, act(r, model, combine(ra, rb))):
                return f"ring tensor pairing differs on {name}"
            continue
        if payload.get("window") != window or payload["carrier"] != "operation":
            return "payload does not echo the request"
        entries = {(i, j): terms for i, j, terms in payload["result"]}
        for key in _absent_keys(set(entries), kind, window, rng, 8):
            entries[key] = []
        memo = {}
        for (i, j), terms in entries.items():
            got = _pairing(terms, model, {"T1": lam_a, "T2": lam_b}, memo)
            want = act(r, model, combine(model.add(model.from_int(i), ra),
                                         model.add(model.from_int(j), rb)))
            if not model.eq(got, want):
                return f"entry ({i},{j}) differs on {name}"
    return None


CHECKS = {"upoly": check_upoly, "check": check_suite, "coprod": check_coprod}


def check_output(job: dict, stdout: bytes) -> str | None:
    try:
        return CHECKS[job["oracle"]](job, stdout)
    except (ValueError, KeyError, TypeError, IndexError, LambdaOpsError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
