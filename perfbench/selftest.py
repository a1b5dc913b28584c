"""Self-test of the benchmark at a tiny size; it checks no timings.

usage: python3 perfbench/selftest.py

For every workload it runs the benchmark untraced once and traced twice at
--tiny size, and checks the result schema against BENCHMARK.json, that no
job failed, and that every per-layer count repeats exactly.  It then shows
that corrupted outputs fail their oracles, and that the benchmark refuses
to run, printing no result, where the package sources are missing.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import jobs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        FAILURES.append(what)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def check_result(line: str, specs: list[dict], what: str) -> dict:
    result = json.loads(line)
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{what}: result keys")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{what}: correct, failed_ratio == 0")
    want = {spec["name"]: spec["unit"] for spec in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == want, f"{what}: metric names and units match BENCHMARK.json")
    expect(all(isinstance(m["value"], (int, float)) and sorted(m) == ["unit", "value"]
               for m in result["metrics"].values()), f"{what}: metric values are numbers")
    return result


def schema_and_repeat(spec: dict) -> None:
    for workload in run.WORKLOADS:
        rc, lines = bench(workload, 0)
        expect(rc == 0, f"{workload}: untraced run exits 0")
        info = json.loads(lines[-2])
        expect(info["failed_ratio"] == 0 and info["seed"] == 7
               and {"python", "nproc", "git_sha", "src_sha256"} <= set(info),
               f"{workload}: provenance line")
        check_result(lines[-1], spec["end_to_end"], f"{workload} untraced")
        counts = []
        for n in range(2):
            rc, lines = bench(workload, 1)
            expect(rc == 0, f"{workload}: traced run {n} exits 0")
            result = check_result(lines[-1], spec["per_layer"], f"{workload} traced {n}")
            counts.append({name: m["value"] for name, m in result["metrics"].items()
                           if m["unit"] in ("count", "ratio") and name != "trace.overhead_ratio"})
        expect(counts[0] == counts[1], f"{workload}: per-layer counts repeat exactly")


def corrupted_outputs_fail() -> None:
    env = dict(run.CHILD_ENV)

    def cli(job):
        return subprocess.run([sys.executable, "-m", "lambdaops.cli", *job["argv"]],
                              cwd=ROOT, env=env, capture_output=True, check=True).stdout

    def corrupt(stdout: bytes, edit) -> bytes:
        payload = json.loads(stdout)
        edit(payload)
        return (json.dumps(payload) + "\n").encode()

    def bump_first_coeff(terms):
        terms[0]["coeff"] = str(int(terms[0]["coeff"]) + 1)

    rng = random.Random(3)
    pk = next(j for j in jobs.upoly_jobs(rng, tiny=True) if j["id"] == "pk-2")
    out = cli(pk)
    expect(oracles.check_output(pk, out) is None, "upoly oracle accepts the real P_2")
    bad = corrupt(out, lambda p: bump_first_coeff(p["result"]))
    expect(oracles.check_output(pk, bad) is not None, "upoly oracle rejects a corrupted P_2")

    lc = jobs.looping_coprod_jobs(rng, tiny=True)
    co = next(j for j in lc if j["id"] == "coprod-0")
    out = cli(co)
    expect(oracles.check_output(co, out) is None, "coprod oracle accepts the real tensor")
    bad = corrupt(out, lambda p: bump_first_coeff(p["result"][0][2]))
    expect(oracles.check_output(co, bad) is not None, "coprod oracle rejects a corrupted entry")
    bad = corrupt(out, lambda p: p["result"].pop())
    expect(oracles.check_output(co, bad) is not None, "coprod oracle rejects a dropped entry")

    suite = next(j for j in lc if j["id"] == "check-main")
    out = cli(suite)
    bad = corrupt(out, lambda p: p["properties"][0].update({"pass": False}))
    expect(oracles.check_output(suite, out) is None, "suite oracle accepts the real report")
    expect(oracles.check_output(suite, bad) is not None, "suite oracle rejects a FAIL")


def refuses_without_sources() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    rc, lines = bench("upoly-cold", 0, cwd=bare)
    expect(rc != 0 and not any(line.startswith("{") for line in lines),
           "refuses to run, printing no result, without the package sources")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    schema_and_repeat(spec)
    corrupted_outputs_fail()
    refuses_without_sources()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
