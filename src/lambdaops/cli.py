"""Batch command line: compute universal polynomials, compose and apply
operations, loop them, take coproducts, and run the verification suites.

Identical invocations (including --seed) produce byte-identical output; the
exit code is nonzero exactly when a suite fails or a command errors, and an
error writes one `error:` line to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from .checks import run_suite
from .errors import LambdaOpsError
from .evenops import compose_even, op_coadd, op_comult
from .intpoly import IntPoly
from .kbu import coadd, comult
from .loopgrade import compose_odd, loop_even, loop_odd
from .models import ProjectiveModel, SplitModel, get_model
from .parser import ParseError, parse_element, parse_operand
from .symfun import left_linearise, newton_psi, universal_pij, universal_pk


def _emit(fmt: str, payload: Callable[[], dict], text: Callable[[], str]) -> None:
    """Print the output in the requested format; only that form is built."""
    print(_json(payload(), {}) if fmt == "json" else text())


def _json(obj, memo: dict) -> str:
    """The bytes of json.dumps(obj, sort_keys=True, separators=(",", ":"))
    for a tree of dicts with string keys, lists and scalars whose IntPoly
    leaves stand for their to_obj() form; they share one monomial memo."""
    if isinstance(obj, IntPoly):
        return obj.to_json(memo)
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_json(obj[k], memo)}" for k in sorted(obj)) + "}"
    if isinstance(obj, list):
        return "[" + ",".join([_json(x, memo) for x in obj]) + "]"
    return json.dumps(obj)


# Largest index (i*j for pij) each upoly kind computes in seconds; cost grows
# several-fold per step beyond it.
UPOLY_BOUNDS = {"pk": 12, "plin": 12, "pij": 25, "psi": 40}


def cmd_upoly(args) -> int:
    kind = args.kind
    idx = args.indices
    need = 2 if kind == "pij" else 1
    if len(idx) != need:
        raise ParseError(f"upoly {kind} expects {need} index argument(s)")
    size = idx[0] * idx[1] if kind == "pij" else idx[0]
    if size > UPOLY_BOUNDS[kind]:
        measure = "i*j" if kind == "pij" else "k"
        raise ParseError(f"upoly {kind}: {measure} = {size} exceeds the bound {UPOLY_BOUNDS[kind]}")
    if kind == "pk":
        poly = universal_pk(idx[0])
    elif kind == "pij":
        poly = universal_pij(idx[0], idx[1])
    elif kind == "plin":
        poly = left_linearise(universal_pk(idx[0]))
    else:
        poly = newton_psi(idx[0])
    _emit(args.format,
          lambda: {"command": "upoly", "kind": kind, "indices": idx, "result": poly},
          lambda: str(poly))
    return 0


def _split_compose_operands(args) -> tuple[str, str]:
    if args.rhs is not None:
        return args.lhs, args.rhs
    for sep in ("∘", " o "):
        if sep in args.lhs:
            left, right = args.lhs.split(sep, 1)
            return left, right
    raise ParseError("compose needs two operands (or one containing a composition sign)")


def cmd_compose(args) -> int:
    lhs_text, rhs_text = _split_compose_operands(args)
    lhs = parse_operand(lhs_text, args.trunc, args.window)
    rhs = parse_operand(rhs_text, args.trunc, args.window)
    if lhs.kind == "odd" or rhs.kind == "odd":
        if lhs.kind != "odd" or rhs.kind != "odd":
            raise ParseError("parity mismatch: cannot compose even with odd")
        result = compose_odd(lhs.payload, rhs.payload)
        _emit(args.format,
              lambda: {"command": "compose", "parity": "odd", "trunc": args.trunc,
                       "result": result.to_obj()},
              lambda: str(result))
        return 0
    parser_ctx = _operand_ctx(args)
    r = parser_ctx.promote_even(lhs).payload
    s = parser_ctx.promote_even(rhs).payload
    result = compose_even(r, s)
    _emit(args.format,
          lambda: {"command": "compose", "parity": "even", "trunc": args.trunc,
                   "window": args.window, "result": result.to_obj()},
          lambda: str(result))
    return 0


def _operand_ctx(args):
    from .parser import OperandParser

    return OperandParser([], args.trunc, args.window)


def cmd_act(args) -> int:
    from .evenops import act

    op_val = parse_operand(args.op, args.trunc, args.window)
    if op_val.kind == "odd":
        raise ParseError("act applies even operations; odd classes act through suspension")
    op = _operand_ctx(args).promote_even(op_val).payload
    model = get_model(args.model)
    elem_val = parse_element(args.element, args.trunc, args.window)
    if elem_val.kind == "int":
        elem = model.from_int(elem_val.payload)
    elif elem_val.kind == "poly":
        elem = elem_val.payload
        if not elem.variables().keys() <= _model_variables(model):
            raise ParseError(f"element {args.element!r} is not in model {args.model}")
    else:
        raise ParseError(f"cannot read a model element from a {elem_val.kind} expression")
    result = act(op, model, elem)
    shown = model.show(result)
    _emit(args.format,
          lambda: {"command": "act", "model": args.model, "element": args.element,
                   "result": shown},
          lambda: shown)
    return 0


def _model_variables(model) -> set[tuple[str, int]]:
    """The variables a polynomial element of `model` may contain."""
    if isinstance(model, ProjectiveModel):
        return {("u", 1)}
    if isinstance(model, SplitModel):
        return {("x", i) for i in range(1, model.m + 1)}
    return set()


def cmd_loop(args) -> int:
    val = parse_operand(args.op, args.trunc, args.window)
    if val.kind == "odd":
        result = loop_odd(val.payload, args.window)
        parity = "odd->even"
    else:
        result = loop_even(_operand_ctx(args).promote_even(val).payload)
        parity = "even->odd"
    _emit(args.format,
          lambda: {"command": "loop", "parity": parity, "result": result.to_obj()},
          lambda: str(result))
    return 0


def cmd_coprod(args) -> int:
    val = parse_operand(args.op, args.trunc, args.window)
    if val.kind == "kbu":
        tensor = coadd(val.payload) if args.kind == "add" else comult(val.payload)
        _emit(args.format,
              lambda: {"command": "coprod", "kind": args.kind, "carrier": "ring",
                       "trunc": args.trunc,
                       "result": [[left.poly, right.poly] for left, right in tensor.pairs()]},
              lambda: str(tensor))
        return 0
    op = _operand_ctx(args).promote_even(val).payload
    tensor = op_coadd(op) if args.kind == "add" else op_comult(op)
    entries = sorted(tensor.entries.items())
    _emit(args.format,
          lambda: {"command": "coprod", "kind": args.kind, "carrier": "operation",
                   "trunc": args.trunc, "window": args.window,
                   "result": [[i, j, poly] for (i, j), poly in entries]},
          lambda: "; ".join(f"({i},{j}): {poly}" for (i, j), poly in entries) or "0")
    return 0


def cmd_check(args) -> int:
    report = run_suite(args.suite, args.trunc, args.window, args.seed)
    _emit(args.format, lambda: report, lambda: "\n".join(_report_lines(report)))
    return 0 if report["pass"] else 1


def _report_lines(report: dict) -> list[str]:
    if "suites" in report:
        lines = [line for sub in report["suites"] for line in _report_lines(sub)]
        return lines + [f"ALL: {'PASS' if report['pass'] else 'FAIL'}"]
    lines = []
    for prop in report["properties"]:
        status = "PASS" if prop["pass"] else "FAIL"
        line = f"{report['suite']}/{prop['id']}: {status} ({prop['instances']} instances)"
        if prop["counterexample"]:
            line += f" first counterexample: {prop['counterexample']}"
        lines.append(line)
    return lines + [f"{report['suite']}: {'PASS' if report['pass'] else 'FAIL'}"]


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as a ParseError instead of exiting 2."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _ArgumentParser(add_help=False)
    common.add_argument("--trunc", type=int, default=argparse.SUPPRESS,
                        help="generator truncation level N (default 5)")
    common.add_argument("--window", type=int, default=argparse.SUPPRESS,
                        help="integer window half-width W (default 16)")
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--model", default=argparse.SUPPRESS,
                        help="model selector (zz, sphere, cp:m, split:m, coi)")

    ap = _ArgumentParser(
        prog="lambdaops",
        description="Exact computations in the lambda-operation plethory",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("upoly", parents=[common], help="print a universal polynomial")
    p.add_argument("kind", choices=("pk", "pij", "plin", "psi"))
    p.add_argument("indices", type=int, nargs="+")
    p.set_defaults(fn=cmd_upoly)

    p = sub.add_parser("compose", parents=[common],
                       help="compose two operations of equal parity")
    p.add_argument("lhs")
    p.add_argument("rhs", nargs="?", default=None)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("act", parents=[common],
                       help="apply an even operation to a model element")
    p.add_argument("op")
    p.add_argument("element")
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser("loop", parents=[common],
                       help="loop an operation (swaps parity)")
    p.add_argument("op")
    p.set_defaults(fn=cmd_loop)

    p = sub.add_parser("coprod", parents=[common],
                       help="co-addition or co-multiplication")
    p.add_argument("kind", choices=("add", "mul"))
    p.add_argument("op")
    p.set_defaults(fn=cmd_coprod)

    p = sub.add_parser("check", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=("all", "biring", "compose", "looping", "models", "main"))
    p.set_defaults(fn=cmd_check)

    return ap


DEFAULTS = {"trunc": 5, "window": 16, "format": "text", "seed": 0, "model": "zz"}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for key, value in DEFAULTS.items():
            if not hasattr(args, key):
                setattr(args, key, value)
        for flag in ("trunc", "window"):
            if getattr(args, flag) < 1:
                raise ParseError(f"--{flag} must be at least 1")
        return args.fn(args)
    except (ParseError, LambdaOpsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
