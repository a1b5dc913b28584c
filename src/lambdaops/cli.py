"""Batch command line: compute universal polynomials, compose and apply
operations, loop them, take coproducts, and run the verification suites.

Identical invocations (including --seed) produce byte-identical output; the
exit code is nonzero exactly when a suite fails or a command errors, and an
error writes one `error:` line to stderr.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace
from typing import Callable

from .checks import run_suite
from .errors import LambdaOpsError
from .evenops import act, compose_even, op_coadd, op_comult
from .intpoly import IntPoly
from .kbu import coadd, comult
from .loopgrade import compose_odd, loop_even, loop_odd
from .models import ProjectiveModel, SplitModel, get_model
from .parser import OperandParser, OutsideModel, ParseError, parse_element, parse_operand
from .report import report_lines
from .symfun import newton_psi, universal_pij, universal_pk


def _emit(fmt: str, payload: Callable[[], dict], text: Callable[[], str]) -> None:
    """Print the output in the requested format; only that form is built."""
    print(_json(payload()) if fmt == "json" else text())


_PLAIN = re.compile(r'[ !#-\[\]-~]*').fullmatch  # printable ASCII but '"' and '\\'


def _json(obj) -> str:
    """The bytes of json.dumps(obj, sort_keys=True, separators=(",", ":"))
    for a tree of dicts with string keys, lists and scalars whose IntPoly
    leaves stand for their to_obj() form.  The tree is written once with the
    leaves left in place; then the leaves are written together by
    IntPoly.to_json_all, which decodes and sorts each distinct monomial of
    the output once.  Keys and scalars are written directly; only a string
    that needs escaping, or a float, goes through json.dumps."""
    parts: list = []  # JSON text, and the IntPoly leaves in output order

    def scalar(x) -> str:
        if x is None:
            return "null"
        if type(x) is bool:
            return "true" if x else "false"
        if type(x) is int:
            return str(x)
        if type(x) is str and _PLAIN(x):
            return f'"{x}"'
        return json.dumps(x)  # a string that needs escaping, or a float

    def walk(x) -> None:
        if isinstance(x, IntPoly):
            parts.append(x)
        elif isinstance(x, dict):
            sep = "{"
            for k in sorted(x):
                parts.append(f"{sep}{scalar(k)}:")
                walk(x[k])
                sep = ","
            parts.append("}" if x else "{}")
        elif isinstance(x, list):
            sep = "["
            for y in x:
                parts.append(sep)
                walk(y)
                sep = ","
            parts.append("]" if x else "[]")
        else:
            parts.append(scalar(x))

    walk(obj)
    texts = iter(IntPoly.to_json_all([p for p in parts if isinstance(p, IntPoly)]))
    return "".join([next(texts) if isinstance(p, IntPoly) else p for p in parts])


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
        poly = IntPoly.var("x", idx[0]) * newton_psi(idx[0]).rename_family("L", "y")
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
    return OperandParser([], args.trunc, args.window)


def cmd_act(args) -> int:
    op_val = parse_operand(args.op, args.trunc, args.window)
    if op_val.kind == "odd":
        raise ParseError("act applies even operations; odd classes act through suspension")
    op = _operand_ctx(args).promote_even(op_val).payload
    model = get_model(args.model)
    try:
        elem_val = parse_element(args.element, args.trunc, args.window, _model_variables(model))
    except OutsideModel:
        raise ParseError(f"element {args.element!r} is not in model {args.model}") from None
    if elem_val.kind == "int":
        elem = model.from_int(elem_val.payload)
    elif elem_val.kind == "poly":
        elem = elem_val.payload
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
                       "result": [list(pair) for pair in tensor.pairs()]},
              lambda: str(tensor))
        return 0
    op = _operand_ctx(args).promote_even(val).payload
    tensor = op_coadd(op) if args.kind == "add" else op_comult(op)
    entries = sorted(tensor.entries.items())
    _emit(args.format,
          lambda: {"command": "coprod", "kind": args.kind, "carrier": "operation",
                   "trunc": args.trunc, "window": args.window,
                   "result": [[i, j, poly] for (i, j), poly in entries]},
          lambda: "; ".join([f"({i},{j}): {text}" for ((i, j), _), text in
                             zip(entries, IntPoly.to_text_all([p for _, p in entries]))]) or "0")
    return 0


def cmd_check(args) -> int:
    report = run_suite(args.suite, args.trunc, args.window, args.seed)
    _emit(args.format, lambda: report, lambda: "\n".join(report_lines(report)))
    return 0 if report["pass"] else 1


# The command line.  FLAGS: name -> (converter or choices, default).  COMMANDS:
# name -> (help line, *positionals), each a (shown name, converter or choices)
# pair: "[<x>]" is optional and "<x>..." takes one or more, in the last place.
# The handler cmd_<name> is looked up per run, so wrappers on it see the call.
FLAGS = {"trunc": (int, 5), "window": (int, 16), "format": (("json", "text"), "text"),
         "seed": (int, 0), "model": (str, "zz")}
COMMANDS = {
    "upoly": ("print a universal polynomial",
              ("kind", ("pk", "pij", "plin", "psi")), ("<indices>...", int)),
    "compose": ("compose two operations of equal parity", ("<lhs>", str), ("[<rhs>]", str)),
    "act": ("apply an even operation to a model element", ("<op>", str), ("<element>", str)),
    "loop": ("loop an operation (swaps parity)", ("<op>", str)),
    "coprod": ("co-addition or co-multiplication", ("kind", ("add", "mul")), ("<op>", str)),
    "check": ("run a verification suite",
              ("suite", ("all", "biring", "compose", "looping", "models", "main"))),
}


def _shown(name: str, conv) -> str:
    return "{" + "|".join(conv) + "}" if isinstance(conv, tuple) else name


def _help(args) -> int:
    """Print the usage, rendered from FLAGS and COMMANDS."""
    rows = [(" ".join([name, *(_shown(*p) for p in spec)]), text)
            for name, (text, *spec) in COMMANDS.items()]
    rows += [(f"--{name} " + _shown(f"<{getattr(conv, '__name__', '')}>", conv), f"default {default}")
             for name, (conv, default) in FLAGS.items()] + [("-h, --help", "print this text")]
    lines = [f"  {left:<{max(len(r[0]) for r in rows) + 2}}{text}" for left, text in rows]
    lines.insert(len(COMMANDS), "flags, before, after or between the arguments (the last one wins):")
    print("usage: lambdaops <command> <arguments> [flags]", *lines, sep="\n")
    return 0


def _read_flag(tok: str):
    """As argparse read a token before `--`: None for a positional, else
    (flag name, "help" or "" if unknown; the text after "=" or None)."""
    if tok[:1] != "-" or tok == "-":
        return None
    opt, eq, value = tok.partition("=")
    names = [name for name in (*FLAGS, "help") if f"--{name}".startswith(opt)] if tok[1] == "-" else []
    if len(names) > 1:
        raise ParseError(f"ambiguous option: {tok}")
    if names:
        return names[0], value if eq else None
    if tok[1] == "h":  # -hh and -h=h ask for help too
        return "help", None if re.fullmatch(r"-h(=?h+)?", tok) else tok[2:]
    return None if re.match(r"-\d+$|-\d*\.\d+$", tok) or " " in tok else ("", None)


def _convert(name: str, conv, tok: str):
    try:
        return conv(tok) if callable(conv) else conv[conv.index(tok)]
    except ValueError:
        choices = f" (choose from {', '.join(conv)})" if isinstance(conv, tuple) else ""
        raise ParseError(f"invalid {name}: {tok!r}{choices}") from None


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The flags, positionals and handler `fn` of a command line, read in one pass
    with the grammar the README states.  Help (fn=_help) wins over later errors."""
    cut = argv.index("--") if "--" in argv else len(argv)  # the first `--` ends the flags
    kinds = [*map(_read_flag, argv[:cut]), "--", *[None] * len(argv)][:len(argv)]
    args = SimpleNamespace(**{name: default for name, (_, default) in FLAGS.items()})
    specs, run, unread = None, [], []
    tokens = zip([*argv, ""], [*kinds, ()])  # () marks the end
    for tok, kind in tokens:
        if kind is None or kind == "--":
            if specs is None:  # the command; a separator before it is no command either
                args.fn = globals()["cmd_" + _convert("command", tuple(COMMANDS), tok)]
                specs = list(COMMANDS[tok][1:])
            else:
                run.append(None if kind else tok)  # None stands for the separator
            continue
        # A flag, or the end: the positionals since the last flag fill what they can.
        real = [t for t in run if t is not None]
        while specs and (real or specs[0][0].startswith("[")):  # an optional one may stay None
            name, conv = specs.pop(0)
            many = name.endswith("...")
            values = [_convert(name, conv, t) for t in (real if many else real[:1])]
            setattr(args, name.strip("<>[]."), values if many else (values or [None])[0])
            del real[:len(values)]
        unread, run = unread + real + ["--"] * (run == [None]), []
        name, value = kind or ("", "")  # the end reads as no flag
        if name == "help":
            if value is not None:
                raise ParseError(f"{tok}: help takes no value")
            return SimpleNamespace(fn=_help)
        if name and value is None:
            value, after = next(tokens)
            if after is not None:
                raise ParseError(f"{tok} expects one value")
        if name:
            setattr(args, name, _convert(f"--{name}", FLAGS[name][0], value))
        elif kind:
            unread.append(tok)
    if specs is None or unread or any(not name.startswith("[") for name, _ in specs):
        raise ParseError(f"unrecognized arguments: {' '.join(unread)}" if unread else
                         f"missing {' '.join(name for name, _ in specs or [('<command>', 0)])}")
    for name in ("trunc", "window"):
        if getattr(args, name) < 1:
            raise ParseError(f"--{name} must be at least 1")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except (ParseError, LambdaOpsError, ValueError, BrokenPipeError) as exc:
        if isinstance(exc, BrokenPipeError):  # stdout closed early: exit's flush goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
