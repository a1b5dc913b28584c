"""Run one `lambdaops` command in this fresh process, as the installed entry
point would, and record when the import and the command ended.

usage: python3 cli_job.py TIMING_JSON TRACE SPANS_JSONL -- ARGS...

TRACE is 1 to run the command under the span tracer, whose report goes into
TIMING_JSON and whose spans go to SPANS_JSONL.  Times are CLOCK_MONOTONIC
nanoseconds, comparable with the parent's clock.
"""

import json
import sys
import time


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main() -> int:
    timing_path, trace, spans_path, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_job.py TIMING_JSON TRACE SPANS_JSONL -- ARGS...")
    import lambdaops.cli

    import_end = _now()
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = _now()
    try:
        rc = lambdaops.cli.main(args)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    end = _now()
    record = {"import_end": import_end, "start": start, "end": end, "rc": rc}
    if tracer is not None:
        record["trace"] = tracer.report()
        tracer.write_spans(spans_path)
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
