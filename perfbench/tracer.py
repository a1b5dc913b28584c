"""Span tracer that wraps the public functions of each lambdaops module from
outside, so that no file of the package changes.

`install()` replaces functions and methods by timing wrappers in every
lambdaops module that holds a reference to them.  Each wrapper keeps the
span stack: a span's self time is its duration minus the durations of the
wrapped calls made inside it.  Per span name the tracer keeps the call
count, total and self time.  Coarse spans (everything but the tiny kernel
operations, which run millions of times) are also kept in memory as
(id, parent, name, start, end, job) records and written out at the end.

Cache lookups are counted at the cached functions themselves: a lookup is a
call that consults the module cache, and a hit is one whose key was already
present before the call.
"""

from __future__ import annotations

import importlib
import json
import time

CLOCK = time.perf_counter_ns

# (module, attribute or Class.method, span name); `fine` entries are counted
# and timed but not kept as span records.
COARSE = [
    ("cli", "main", "cli.main"),
    ("cli", "cmd_upoly", "cli.cmd_upoly"),
    ("cli", "cmd_compose", "cli.cmd_compose"),
    ("cli", "cmd_act", "cli.cmd_act"),
    ("cli", "cmd_loop", "cli.cmd_loop"),
    ("cli", "cmd_coprod", "cli.cmd_coprod"),
    ("cli", "cmd_check", "cli.cmd_check"),
    ("cli", "_emit", "cli.emit"),
    ("parser", "parse_operand", "parser.parse_operand"),
    ("parser", "parse_element", "parser.parse_element"),
    ("parser", "OperandParser.promote_even", "parser.promote_even"),
    ("symfun", "elementary_expand", "symfun.elementary_expand"),
    ("symfun", "universal_pk", "symfun.universal_pk"),
    ("symfun", "universal_pij", "symfun.universal_pij"),
    ("symfun", "newton_psi", "symfun.newton_psi"),
    ("symfun", "left_linearise", "symfun.left_linearise"),
    ("kbu", "coadd", "kbu.coadd"),
    ("kbu", "coadd_image", "kbu.coadd_image"),
    ("kbu", "coadd_multi", "kbu.coadd_multi"),
    ("kbu", "comult", "kbu.comult"),
    ("kbu", "comult_image", "kbu.comult_image"),
    ("kbu", "antipode", "kbu.antipode"),
    ("kbu", "colinear", "kbu.colinear"),
    ("kbu", "compose_kbu", "kbu.compose_kbu"),
    ("kbu", "_poly_compose", "kbu.poly_compose"),
    ("kbu", "_gen_compose", "kbu.gen_compose"),
    ("setzz", "fn_window_normalise", "setzz.fn_window_normalise"),
    ("setzz", "fn_coadd", "setzz.fn_coadd"),
    ("setzz", "fn_comult", "setzz.fn_comult"),
    ("setzz", "coi_add", "setzz.coi_add"),
    ("setzz", "coi_mul", "setzz.coi_mul"),
    ("evenops", "EvenOp.from_pairs", "evenops.from_pairs"),
    ("evenops", "EvenOp.__add__", "evenops.op_add"),
    ("evenops", "EvenOp.__mul__", "evenops.op_mul"),
    ("evenops", "identity_op", "evenops.identity_op"),
    ("evenops", "act", "evenops.act"),
    ("evenops", "EvenOpTensor.act2", "evenops.act2"),
    ("evenops", "tensor_of_ops", "evenops.tensor_of_ops"),
    ("evenops", "op_coadd", "evenops.op_coadd"),
    ("evenops", "op_comult", "evenops.op_comult"),
    ("evenops", "op_is_primitive", "evenops.op_is_primitive"),
    ("evenops", "compose_even", "evenops.compose_even"),
    ("evenops", "compose_even_pair", "evenops.compose_even_pair"),
    ("loopgrade", "loop_polynomial", "loopgrade.loop_polynomial"),
    ("loopgrade", "loop_even", "loopgrade.loop_even"),
    ("loopgrade", "loop_odd", "loopgrade.loop_odd"),
    ("loopgrade", "compose_odd", "loopgrade.compose_odd"),
    ("loopgrade", "_odd_gen_compose", "loopgrade.odd_gen_compose"),
    ("loopgrade", "coadd_odd", "loopgrade.coadd_odd"),
    ("loopgrade", "odd_is_primitive", "loopgrade.odd_is_primitive"),
    ("loopgrade", "check_looping_axioms", "loopgrade.check_looping_axioms"),
    ("loopgrade", "main_relations_check", "loopgrade.main_relations_check"),
    ("loopgrade", "_suspension_eval", "loopgrade.suspension_eval"),
    ("loopgrade", "_pair_suspension_eval", "loopgrade.pair_suspension_eval"),
    ("models", "poly_eval_in_model", "models.poly_eval_in_model"),
    ("models", "validate_model", "models.validate_model"),
    ("models", "register_models", "models.register_models"),
    ("models", "model_psi", "models.model_psi"),
    ("models", "IntegerModel.lam", "models.lam"),
    ("models", "LineClassModel.lam", "models.lam"),
    ("models", "COIModel.lam", "models.lam"),
    ("models", "LineClassModel.psi", "models.psi"),
    ("checks", "biring_suite", "checks.biring_suite"),
    ("checks", "compose_suite", "checks.compose_suite"),
    ("checks", "models_suite", "checks.models_suite"),
    ("checks", "looping_suite", "checks.looping_suite"),
    ("checks", "main_suite", "checks.main_suite"),
    ("checks", "run_suite", "checks.run_suite"),
]

FINE = [
    ("intpoly", "IntPoly.__init__", "intpoly.new"),
    ("intpoly", "IntPoly.__add__", "intpoly.add"),
    ("intpoly", "IntPoly.__sub__", "intpoly.sub"),
    ("intpoly", "IntPoly.__neg__", "intpoly.neg"),
    ("intpoly", "IntPoly.__mul__", "intpoly.mul"),
    ("intpoly", "IntPoly.__pow__", "intpoly.pow"),
    ("intpoly", "IntPoly.__eq__", "intpoly.eq"),
    ("intpoly", "IntPoly.substitute", "intpoly.substitute"),
    ("intpoly", "IntPoly.map_terms", "intpoly.map_terms"),
    ("intpoly", "IntPoly.evaluate", "intpoly.evaluate"),
    ("intpoly", "IntPoly.truncate_family", "intpoly.truncate_family"),
    ("intpoly", "IntPoly.rename_family", "intpoly.rename_family"),
    ("intpoly", "IntPoly.variables", "intpoly.variables"),
    ("intpoly", "IntPoly.key", "intpoly.key"),
    ("intpoly", "IntPoly.to_obj", "intpoly.to_obj"),
    ("symfun", "esym_poly", "symfun.esym_poly"),
    ("symfun", "lambda_of_integer", "symfun.lambda_of_integer"),
    ("kbu", "gamma_gen", "kbu.gamma_gen"),
    ("kbu", "sigma_gen", "kbu.sigma_gen"),
    ("kbu", "cozero", "kbu.cozero"),
    ("kbu", "gen", "kbu.gen"),
    ("setzz", "FnConst.ev", "setzz.ev"),
    ("setzz", "FnId.ev", "setzz.ev"),
    ("setzz", "FnChi.ev", "setzz.ev"),
    ("setzz", "FnSum.ev", "setzz.ev"),
    ("setzz", "FnProd.ev", "setzz.ev"),
    ("setzz", "FnCompose.ev", "setzz.ev"),
    ("evenops", "divisor_pairs", "evenops.divisor_pairs"),
    ("exterior", "ExtElem.__add__", "exterior.add"),
    ("exterior", "ExtElem.__mul__", "exterior.mul"),
    ("exterior", "wedge_mono", "exterior.wedge_mono"),
    ("loopgrade", "lgen", "loopgrade.lgen"),
]


def _terms_key(poly):
    # IntPoly.key without calling the (wrapped) method
    return tuple(sorted(poly.terms.items()))


# Cached functions: span name -> (module, cache attribute, key of the call
# or None when the call returns before consulting the cache).
CACHED = {
    "symfun.universal_pk": ("symfun", "_PK_CACHE", lambda k: k),
    "symfun.universal_pij": ("symfun", "_PIJ_CACHE", lambda i, j: (i, j)),
    "symfun.esym_poly": ("symfun", "_ESYM_CACHE",
                         lambda f, m, k: (f, m, k) if 0 < k <= m else None),
    "symfun.newton_psi": ("symfun", "_PSI_CACHE", lambda k: k),
    "kbu.gamma_gen": ("kbu", "_GAMMA_CACHE", lambda kappa, k: (kappa, k)),
    "kbu.sigma_gen": ("kbu", "_SIGMA_CACHE", lambda k: k or None),
    "kbu.gen_compose": ("kbu", "_COMPOSE_CACHE",
                        lambda g, y: (g, _terms_key(y)) if g and y.terms else None),
    "loopgrade.loop_polynomial": ("loopgrade", "_PL_CACHE", lambda k: k),
    "loopgrade.odd_gen_compose": ("loopgrade", "_ODD_GEN_CACHE",
                                  lambda i, j, trunc: (i, j)),
}

CACHES = {
    "symfun": ["_PK_CACHE", "_PIJ_CACHE", "_ESYM_CACHE", "_PSI_CACHE"],
    "kbu": ["_GAMMA_CACHE", "_SIGMA_CACHE", "_COMPOSE_CACHE"],
    "loopgrade": ["_PL_CACHE", "_ODD_GEN_CACHE"],
}

# tensors whose entry count adds to the evenops.tensor_entries counter
TENSOR_RESULTS = {"evenops.op_coadd", "evenops.op_comult"}

MODULES = ["intpoly", "symfun", "kbu", "setzz", "evenops", "exterior",
           "loopgrade", "models", "checks", "parser", "cli"]


class Tracer:
    """Span stack, per-name aggregates, kept spans and cache lookups."""

    def __init__(self):
        self.stack: list[list] = []  # frames: [child_ns, coarse span id]
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.spans: list[tuple] = []
        self.next_id = 1
        self.job = 0
        self.lookups: dict[str, list[int]] = {}  # cache -> [lookups, hits]
        self.counters = {"evenops.tensor_entries": 0}
        self.cached: dict[str, tuple] = {}

    def wrap(self, name: str, fn, keep: bool):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self.stack
        cached = self.cached.get(name)
        tensor = name in TENSOR_RESULTS
        tracer = self

        def traced(*args, **kwargs):
            if cached is not None:
                tracer._lookup(cached, args)
            parent = stack[-1][1] if stack else 0
            if keep:
                span_id = tracer.next_id
                tracer.next_id += 1
            else:
                span_id = parent
            frame = [0, span_id]
            stack.append(frame)
            start = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = CLOCK()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep:
                    tracer.spans.append((span_id, parent, name, start, end, tracer.job))
            if tensor:
                tracer.counters["evenops.tensor_entries"] += len(result.entries)
            return result

        traced.__wrapped__ = fn
        return traced

    def _lookup(self, cached, args):
        module, attr, key_of = cached
        key = key_of(*args)
        if key is None:
            return
        entry = self.lookups.setdefault(attr, [0, 0])
        entry[0] += 1
        if key in getattr(module, attr):
            entry[1] += 1

    def install(self) -> None:
        mods = {m: importlib.import_module(f"lambdaops.{m}") for m in MODULES}
        self.cached = {name: (mods[mod], attr, key_of)
                       for name, (mod, attr, key_of) in CACHED.items()}
        for specs, keep in ((COARSE, True), (FINE, False)):
            for mod, path, name in specs:
                _patch(mods, mods[mod], path, lambda fn, n=name, k=keep: self.wrap(n, fn, k))

    def cache_sizes(self) -> dict[str, int]:
        out = {}
        for mod, attrs in CACHES.items():
            module = importlib.import_module(f"lambdaops.{mod}")
            for attr in attrs:
                out[attr] = len(getattr(module, attr))
        return out

    def report(self) -> dict:
        return {
            "stats": self.stats,
            "lookups": self.lookups,
            "counters": self.counters,
            "caches": self.cache_sizes(),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def _patch(mods: dict, module, path: str, make) -> None:
    """Replace module.path (a function, or Class.method) by make(original)
    wherever a lambdaops module or module-level dict refers to it."""
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        for name, value in list(vars(cls).items()):
            if value is raw:  # aliases such as __radd__ = __add__
                setattr(cls, name, new)
        return
    orig = getattr(module, path)
    new = make(orig)
    for mod in mods.values():
        for name, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, name, new)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is orig:
                        value[key] = new
