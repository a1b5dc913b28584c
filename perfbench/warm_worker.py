"""One long-lived compose-and-act process that uses the library directly.

usage: python3 warm_worker.py SPEC_JSON RESULT_JSON

Set-up imports the package, registers the models with validation, draws
the model samples and warms the caches by composing every operand pair of
the stream once.  Each job then parses both operands, composes them, and
checks act(r o s, a) = act(r, act(s, a)) on the samples of every model.
Times are CLOCK_MONOTONIC nanoseconds, comparable with the parent's clock.
"""

import hashlib
import json
import random
import sys
import time


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main() -> int:
    spec_path, result_path = sys.argv[1:]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    trunc, window, pairs = spec["trunc"], spec["window"], spec["pairs"]

    from lambdaops import errors, evenops, models, parser

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ctx = parser.OperandParser([], trunc, window)

    def operation(text):
        return ctx.promote_even(parser.parse_operand(text, trunc, window)).payload

    def setup():
        registered = models.register_models(validate=True)
        rng = random.Random(spec["sample_seed"])
        samples = {name: m.samples(rng, 3) for name, m in registered.items()}
        for lhs, rhs in pairs:
            evenops.compose_even(operation(lhs), operation(rhs))
        return registered, samples

    def job(lhs, rhs):
        r, s = operation(lhs), operation(rhs)
        comp = evenops.compose_even(r, s)
        bad = []
        for name, model in registered.items():
            for alpha in samples[name]:
                got = evenops.act(comp, model, alpha)
                want = evenops.act(r, model, evenops.act(s, model, alpha))
                if not model.eq(got, want):
                    bad.append(f"{name} at {model.show(alpha)}")
        return comp, bad

    if tracer is not None:
        setup = tracer.wrap("bench.setup", setup, keep=True)
        job = tracer.wrap("bench.job", job, keep=True)

    registered, samples = setup()
    setup_end = _now()
    records = []
    for n, (lhs, rhs) in enumerate(pairs):
        if tracer is not None:
            tracer.job = n + 1
        start = _now()
        try:
            comp, bad = job(lhs, rhs)
            error = "action contract fails on " + ", ".join(bad) if bad else None
        except (errors.LambdaOpsError, ValueError) as exc:
            comp, error = None, f"{type(exc).__name__}: {exc}"
        end = _now()
        # digest of the composite's normal form, read without calling the
        # (possibly traced) library
        table = [] if comp is None else [
            (d, sorted(x.poly.terms.items())) for d, x in sorted(comp.table.items())]
        digest = hashlib.sha256(repr(table).encode()).hexdigest()
        records.append({"ns": end - start, "error": error, "digest": digest})

    result = {"setup_end": setup_end, "jobs": records}
    if tracer is not None:
        result["trace"] = tracer.report()
        tracer.write_spans(spec["spans_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
