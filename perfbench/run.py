"""Benchmark of the lambdaops kernel through its public entry points.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

  upoly-cold      one fresh `lambdaops upoly ... --format json` process per
                  universal polynomial; every module cache starts cold.
  looping-coprod  fresh CLI processes for the looping and main-relation
                  suites and for seeded co-products.
  compose-act-warm  one long-lived process per round that sets up, then
                  parses, composes and acts on a seeded stream of pairs.

One parent process runs one job at a time and checks every output against
an oracle that does not share the code under test (oracles.py).  A run
repeats whole rounds of its workload until --seconds are used up and
reports medians.  With --trace 0 it prints the end-to-end metrics.  With
--trace 1 it runs one untraced round and two traced rounds (tracer.py wraps
the package's functions from outside), requires byte-identical outputs and
identical counts across them, and prints the per-layer metrics.  Spans and
per-job records are written under .perfbench-out/ in the checkout.

The last line of stdout is the result object; the line before it records
the interpreter, CPU count, source revision and seed.  --tiny shrinks every
workload for the self-test (selftest.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
JOB_TIMEOUT_S = 40  # a hung job in each of three rounds still ends the run inside 180 s
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_child(cmd: list[str], stdout_path: Path, stderr_path: Path) -> dict:
    """Run one child to completion, killing it after JOB_TIMEOUT_S; returns
    its spawn and exit times, exit code and peak resident set."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        spawn = now()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(JOB_TIMEOUT_S, kill)
        timer.start()
        try:
            # wait for the exit without reaping, so a late kill hits a zombie
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            exit_ = now()
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return {"spawn": spawn, "exit": exit_, "rc": proc.returncode,
            "rss_kb": usage.ru_maxrss, "timed_out": timed_out.is_set()}


def child_error(proc: dict, stderr: bytes) -> str | None:
    if proc["timed_out"]:
        return f"timed out after {JOB_TIMEOUT_S} s"
    if proc["rc"] != 0:
        return f"exit code {proc['rc']}"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    return None


class Round:
    """Measurements of one pass over a workload's jobs."""

    def __init__(self):
        self.wall_ns = 0
        self.setup_ns: list[int] = []
        self.job_ns: dict[str, int] = {}
        self.latency_ns: dict[str, int] = {}
        self.rss_kb = 0
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.digests: dict[str, str] = {}
        self.traces: list[dict] = []
        self.out_bytes = 0


# -- CLI workloads -----------------------------------------------------------------


class CliWorkload:
    """Each job is one fresh `lambdaops` process; a round runs every job once."""

    def __init__(self, jobs: list[dict], outdir: Path):
        import oracles

        self.jobs = jobs
        self.outdir = outdir
        self.check = oracles.check_output
        self.verdicts: dict[tuple[str, str], str | None] = {}

    def round(self, index: int, trace: bool) -> Round:
        rnd = Round()
        for job in self.jobs:
            base = self.outdir / f"r{index}-{job['id']}"
            timing_path = base.with_suffix(".timing.json")
            cmd = [sys.executable, str(HERE / "cli_job.py"), str(timing_path),
                   "1" if trace else "0", str(base.with_suffix(".spans.jsonl")),
                   "--", *job["argv"]]
            proc = run_child(cmd, base.with_suffix(".out"), base.with_suffix(".err"))
            stdout = base.with_suffix(".out").read_bytes()
            stderr = base.with_suffix(".err").read_bytes()
            rnd.attempted += 1
            rnd.wall_ns += proc["exit"] - proc["spawn"]
            rnd.latency_ns[job["id"]] = proc["exit"] - proc["spawn"]
            rnd.rss_kb = max(rnd.rss_kb, proc["rss_kb"])
            rnd.out_bytes += len(stdout)
            digest = hashlib.sha256(stdout).hexdigest()
            rnd.digests[job["id"]] = digest
            error = child_error(proc, stderr)
            if error is None:
                timing = json.loads(timing_path.read_text())
                rnd.setup_ns.append(timing["import_end"] - proc["spawn"])
                rnd.job_ns[job["id"]] = timing["end"] - timing["start"]
                if trace:
                    rnd.traces.append(timing["trace"])
                key = (job["id"], digest)
                if key not in self.verdicts:
                    self.verdicts[key] = self.check(job, stdout)
                error = self.verdicts[key]
            if error is not None:
                rnd.failures[job["id"]] = error
            # outputs are large; keep only the spans and the records
            base.with_suffix(".out").unlink()
        return rnd


# -- compose-act-warm ----------------------------------------------------------------


class WarmWorkload:
    """A round is one long-lived worker process: set-up, then the stream."""

    def __init__(self, spec: dict, outdir: Path):
        self.spec = spec
        self.outdir = outdir

    def round(self, index: int, trace: bool) -> Round:
        base = self.outdir / f"r{index}-worker"
        spec = dict(self.spec, trace=trace, spans_path=str(base.with_suffix(".spans.jsonl")))
        spec_path = base.with_suffix(".spec.json")
        result_path = base.with_suffix(".result.json")
        spec_path.write_text(json.dumps(spec))
        cmd = [sys.executable, str(HERE / "warm_worker.py"), str(spec_path), str(result_path)]
        proc = run_child(cmd, base.with_suffix(".out"), base.with_suffix(".err"))
        stderr = base.with_suffix(".err").read_bytes()
        rnd = Round()
        rnd.attempted = len(spec["pairs"])
        rnd.wall_ns = proc["exit"] - proc["spawn"]
        rnd.rss_kb = proc["rss_kb"]
        error = child_error(proc, stderr)
        if error is not None:
            rnd.failures = {f"job-{n}": f"worker: {error}" for n in range(rnd.attempted)}
            return rnd
        result = json.loads(result_path.read_text())
        rnd.setup_ns.append(result["setup_end"] - proc["spawn"])
        for n, job in enumerate(result["jobs"]):
            rnd.job_ns[f"job-{n}"] = job["ns"]
            rnd.latency_ns[f"job-{n}"] = job["ns"]
            rnd.digests[f"job-{n}"] = job["digest"]
            if job["error"] is not None:
                rnd.failures[f"job-{n}"] = job["error"]
        if trace:
            rnd.traces.append(result["trace"])
        return rnd


# -- metrics -------------------------------------------------------------------------


def end_to_end(rounds: list[Round]) -> dict[str, tuple[float, str]]:
    latency = sorted(ns for r in rounds for ns in r.latency_ns.values())
    jobs = sum(len(r.job_ns) for r in rounds)
    return {
        "wall_s": (statistics.median(r.wall_ns for r in rounds) / 1e9, "s"),
        "setup_s": (statistics.median(ns for r in rounds for ns in r.setup_ns) / 1e9, "s"),
        "jobs_per_s": (jobs / (sum(ns for r in rounds for ns in r.job_ns.values()) / 1e9), "1/s"),
        "job_p50_ms": (statistics.median(latency) / 1e6, "ms"),
        "job_p90_ms": (statistics.quantiles(latency, n=10)[8] / 1e6, "ms"),
        "peak_rss_mb": (max(r.rss_kb for r in rounds) / 1024, "MB"),
    }


def _merge(traces: list[dict]) -> dict:
    merged = {"stats": {}, "lookups": {}, "counters": {}, "caches": {}}
    for rep in traces:
        for part in ("stats", "lookups"):
            for name, values in rep[part].items():
                acc = merged[part].setdefault(name, [0] * len(values))
                for n, v in enumerate(values):
                    acc[n] += v
        for part in ("counters", "caches"):
            for name, value in rep[part].items():
                merged[part][name] = merged[part].get(name, 0) + value
    return merged


def layer_counts(traces: list[dict], out_bytes: int) -> dict[str, float]:
    """Per-layer counts of one traced round; they must repeat exactly."""
    m = _merge(traces)
    stats, lookups, caches = m["stats"], m["lookups"], m["caches"]

    def calls(*names):
        return sum(stats.get(n, (0,))[0] for n in names)

    def hit_ratio(*attrs):
        seen = sum(lookups.get(a, (0, 0))[0] for a in attrs)
        return sum(lookups.get(a, (0, 0))[1] for a in attrs) / seen if seen else 0.0

    symfun_caches = ("_PK_CACHE", "_PIJ_CACHE", "_ESYM_CACHE", "_PSI_CACHE")
    return {
        "cli.out_bytes": out_bytes,
        "parser.parse_operand.calls": calls("parser.parse_operand"),
        "intpoly.new.calls": calls("intpoly.new"),
        "intpoly.mul.calls": calls("intpoly.mul"),
        "intpoly.add.calls": calls("intpoly.add"),
        "intpoly.substitute.calls": calls("intpoly.substitute"),
        "symfun.cache_entries": sum(caches[a] for a in symfun_caches),
        "symfun.cache_hit_ratio": hit_ratio(*symfun_caches),
        "kbu.colinear.calls": calls("kbu.colinear"),
        "kbu.gamma_gen.calls": calls("kbu.gamma_gen"),
        "kbu.compose_kbu.calls": calls("kbu.compose_kbu"),
        "kbu.compose_cache_entries": caches["_COMPOSE_CACHE"],
        "kbu.compose_cache_hit_ratio": hit_ratio("_COMPOSE_CACHE"),
        "kbu.gamma_cache_entries": caches["_GAMMA_CACHE"],
        "kbu.gamma_cache_hit_ratio": hit_ratio("_GAMMA_CACHE"),
        "kbu.sigma_cache_entries": caches["_SIGMA_CACHE"],
        "setzz.ev.calls": calls("setzz.ev"),
        "evenops.tensor_entries": m["counters"]["evenops.tensor_entries"],
        "evenops.act.calls": calls("evenops.act"),
        "loopgrade.compose_odd.calls": calls("loopgrade.compose_odd"),
        "loopgrade.pl_cache_entries": caches["_PL_CACHE"],
        "loopgrade.odd_gen_cache_entries": caches["_ODD_GEN_CACHE"],
        "exterior.mul.calls": calls("exterior.mul"),
        "models.lam.calls": calls("models.lam"),
    }


def layer_times(traces: list[dict]) -> dict[str, float]:
    """Per-layer self times (seconds) of one traced round."""
    stats = _merge(traces)["stats"]

    def self_s(*names):
        return sum(stats.get(n, (0, 0, 0))[2] for n in names) / 1e9

    def layer(prefix):
        return self_s(*(n for n in stats if n.startswith(prefix + ".")))

    return {
        "cli.self_s": layer("cli"),
        "parser.parse_operand.self_s": self_s("parser.parse_operand"),
        "intpoly.self_s": layer("intpoly"),
        "symfun.universal_pk.self_s": self_s("symfun.universal_pk"),
        "symfun.universal_pij.self_s": self_s("symfun.universal_pij"),
        "symfun.elementary_expand.self_s": self_s("symfun.elementary_expand"),
        "symfun.newton_psi.self_s": self_s("symfun.newton_psi"),
        "kbu.colinear.self_s": self_s("kbu.colinear"),
        "kbu.comult.self_s": self_s("kbu.comult", "kbu.comult_image"),
        "kbu.coadd.self_s": self_s("kbu.coadd", "kbu.coadd_image", "kbu.coadd_multi"),
        "kbu.compose_kbu.self_s": self_s("kbu.compose_kbu", "kbu.poly_compose",
                                         "kbu.gen_compose"),
        "setzz.self_s": layer("setzz"),
        "evenops.op_comult.self_s": self_s("evenops.op_comult"),
        "evenops.op_coadd.self_s": self_s("evenops.op_coadd"),
        "evenops.from_pairs.self_s": self_s("evenops.from_pairs"),
        "evenops.compose_even.self_s": self_s("evenops.compose_even"),
        "evenops.act.self_s": self_s("evenops.act"),
        "loopgrade.check_looping_axioms.self_s": self_s("loopgrade.check_looping_axioms"),
        "loopgrade.loop_even.self_s": self_s("loopgrade.loop_even"),
        "loopgrade.loop_odd.self_s": self_s("loopgrade.loop_odd"),
        "models.lam.self_s": self_s("models.lam"),
        "models.poly_eval_in_model.self_s": self_s("models.poly_eval_in_model"),
        "models.validate_model.self_s": self_s("models.validate_model"),
        "checks.looping_suite.self_s": self_s("checks.looping_suite"),
        "checks.main_suite.self_s": self_s("checks.main_suite"),
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


# -- entry point ---------------------------------------------------------------------

WORKLOADS = ("upoly-cold", "looping-coprod", "compose-act-warm")


def make_workload(name: str, seed: int, tiny: bool, outdir: Path):
    import jobs

    rng = random.Random(f"{name}:{seed}")
    if name == "compose-act-warm":
        return WarmWorkload(jobs.compose_act_spec(rng, tiny), outdir)
    make = jobs.upoly_jobs if name == "upoly-cold" else jobs.looping_coprod_jobs
    job_list = make(rng, tiny)
    rng.shuffle(job_list)
    return CliWorkload(job_list, outdir)


MIN_ROUNDS = 2


def measure(workload, seconds: float) -> list[Round]:
    """Whole rounds while the measured time, plus one more round of the mean
    length, fits into `seconds`; at least MIN_ROUNDS."""
    rounds = []
    while True:
        rounds.append(workload.round(len(rounds), trace=False))
        spent = sum(r.wall_ns for r in rounds) / 1e9
        if len(rounds) >= MIN_ROUNDS and spent * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def traced(workload) -> tuple[list[Round], dict[str, float], list[str]]:
    """One untraced and two traced rounds; returns them, the per-layer
    metrics and the violated determinism guard, if any."""
    rounds = [workload.round(n, trace=n > 0) for n in range(3)]
    guards = []
    counts = [layer_counts(r.traces, r.out_bytes) for r in rounds[1:]]
    if counts[0] != counts[1]:
        guards.append("counts differ between the two traced rounds")
    times = [layer_times(r.traces) for r in rounds[1:]]
    metrics = dict(counts[0])
    for name in times[0]:
        metrics[name] = statistics.median(t[name] for t in times)
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.wall_ns for r in rounds[1:]) / rounds[0].wall_ns)
    return rounds, metrics, guards


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lambdaops").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test size")
    args = ap.parse_args(argv)

    if not (SRC / "lambdaops" / "cli.py").is_file():
        print(f"error: no lambdaops sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lambdaops.cli  # noqa: F401  (compiles the bytecode every child loads)

    outdir = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    workload = make_workload(args.workload, args.seed, args.tiny, outdir)

    guards: list[str] = []
    if args.trace:
        rounds, per_layer, guards = traced(workload)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in per_layer.items()}
    else:
        rounds = measure(workload, args.seconds)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end(rounds).items()}

    attempted = sum(r.attempted for r in rounds)
    failures = {f"r{n}:{job}": why for n, r in enumerate(rounds)
                for job, why in r.failures.items()}
    # identical invocations must print identical bytes, traced or not
    for n, rnd in enumerate(rounds[1:], start=1):
        for job, digest in rnd.digests.items():
            if digest != rounds[0].digests.get(job):
                failures.setdefault(f"r{n}:{job}", "output differs from round 0")
    failed = len(failures)
    info = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "round_wall_s": [round(r.wall_ns / 1e9, 4) for r in rounds],
        "latency_samples": sum(len(r.latency_ns) for r in rounds),
        "failed_ratio": failed / attempted,
        "failures": dict(list(failures.items())[:5]),
        "guards": guards,
        "out_dir": str(outdir.relative_to(ROOT)),
    }
    (outdir / "result.json").write_text(json.dumps({"info": info, "metrics": metrics}, indent=1))
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0 and not guards, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
