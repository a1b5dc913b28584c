"""Seeded job lists of the three workloads.

The seed chooses the order of jobs, the oracle's sample points and
cost-neutral operand variants (signs and scalars), so every seed asks the
program for the same amount of work.  `tiny` shrinks each workload for the
self-test.
"""

from __future__ import annotations

import random

# -- upoly-cold ----------------------------------------------------------------


def upoly_jobs(rng: random.Random, tiny: bool = False) -> list[dict]:
    """One fresh `lambdaops upoly` process per universal polynomial: P_k for
    k <= 7, psi_k for k <= 12 and P_{i,j} for every i*j <= 9."""
    max_pk, max_psi, max_ij = (3, 4, 4) if tiny else (7, 12, 9)
    specs = [("pk", (k,)) for k in range(1, max_pk + 1)]
    specs += [("psi", (k,)) for k in range(1, max_psi + 1)]
    specs += [("pij", (i, j)) for i in range(1, max_ij + 1)
              for j in range(1, max_ij + 1) if i * j <= max_ij]
    jobs = []
    for kind, idx in specs:
        jobs.append({
            "id": f"{kind}-" + "-".join(map(str, idx)),
            "argv": ["upoly", kind, *map(str, idx), "--format", "json"],
            "oracle": "upoly",
            "kind": kind,
            "indices": list(idx),
            "points": [_upoly_point(rng, kind, idx) for _ in range(2)],
        })
    return jobs


def _upoly_point(rng: random.Random, kind: str, idx: tuple) -> dict:
    def line(n):
        return [rng.randint(-3, 3) for _ in range(n)]

    if kind == "pk":
        k = idx[0]
        return {"a": line(rng.randint(1, k + 1)), "b": line(rng.randint(1, k + 1))}
    if kind == "pij":
        n = idx[0] * idx[1]
        return {"lines": line(rng.randint(max(1, n - 2), n + 1))}
    return {"lines": line(rng.randint(1, idx[0] + 1))}


# -- looping-coprod --------------------------------------------------------------

# (kind, operand template, window); {c} is a unit or small scalar, {d} an
# indicator index with exactly four divisor pairs, {e} a sign.  With the two
# suites a round has five costly jobs (0.7-4.5 s of work: check looping and
# the first four below), seven mid-sized ones (0.25-0.45 s) and five that
# cost little beyond the interpreter start (check main and the last four).
# The median latency then falls in the middle of the mid-sized group, whose
# work outweighs the start-up and which gives the median many samples,
# instead of on the edge between two groups.
COPROD_TEMPLATES = [
    ("mul", "const({c})@L5", 16),
    ("mul", "const({c})@L5", 8),
    ("mul", "const({c})@L4", 16),
    ("mul", "id@L4 + chi(0)@({c}*L2)", 16),
    ("mul", "const({c})@L4", 8),
    ("mul", "const({c})@L3", 16),
    ("mul", "id@L3", 16),
    ("mul", "chi({d})@(L1*L2) + const({c})@L3", 16),
    ("mul", "chi({d})@L3 + const({c})@L2", 16),
    ("mul", "id@(L1*L2) + chi({e})@L3", 16),
    ("mul", "chi(0)@({c}*L4) + id@L2", 16),
    ("add", "const({c})@L5", 16),
    ("add", "chi({d})@L4 + chi({e})@(L2*L1)", 16),
    ("mul", "({c})*L4", 16),
    ("add", "L5 + {c}*L2*L3", 16),
]

TINY_COPROD_TEMPLATES = [
    ("mul", "const({c})@L2", 4),
    ("add", "chi({d})@L2 + chi({e})@L1", 4),
    ("mul", "({c})*L2", 4),
]


def looping_coprod_jobs(rng: random.Random, tiny: bool = False) -> list[dict]:
    """The looping and main-relation suites at trunc 5, then seeded
    co-multiplications and co-additions at trunc 5 and W in {8, 16}."""
    trunc = 3 if tiny else 5
    suite_seed = rng.randrange(1000)
    jobs = []
    for suite in ("looping", "main"):
        jobs.append({
            "id": f"check-{suite}",
            "argv": ["check", suite, "--trunc", str(trunc), "--seed", str(suite_seed),
                     "--format", "json"],
            "oracle": "check",
            "suite": suite,
            "config": {"trunc": trunc, "window": 16, "seed": suite_seed},
        })
    templates = TINY_COPROD_TEMPLATES if tiny else COPROD_TEMPLATES
    for n, (kind, template, window) in enumerate(templates):
        op = template.format(c=rng.choice([1, -1, 2]), d=rng.choice([2, -2, 3, -3]),
                             e=rng.choice([1, -1]))
        jobs.append({
            "id": f"coprod-{n}",
            "argv": ["coprod", kind, op, "--trunc", str(trunc), "--window", str(window),
                     "--format", "json"],
            "oracle": "coprod",
            "kind": kind,
            "op": op,
            "trunc": trunc,
            "window": window,
            "sample_seed": rng.randrange(1 << 30),
        })
    return jobs


# -- compose-act-warm ------------------------------------------------------------

# Ring legs have weight <= 4 on the left and <= 2 on the right, so every
# composite stays inside truncation 8 and the action oracle is exact.  The
# unbounded function id only multiplies constant-free legs, so component
# augmentations stay inside the window.
LEFT_OPS = [
    "chi(0)@(L4)", "chi(1)@(L1*L3)", "chi(-1)@(L2*L2)", "chi(2)@(L3-L2)",
    "chi(-2)@(L4-L1)", "chi(3)@(L1*L2+3)", "const(1)@(L2)", "const(-1)@(L1*L1)",
    "const(2)@(2*L1)", "const(1)@(L2+1)", "id@(L3)", "id@(L1*L3)",
    "chi(0)@(L1) + const(1)@(L3)", "chi(1)@(L2) + chi(-1)@(L4)",
    "const(2)@(1) + chi(2)@(L1*L1)", "chi(0)@(L2+1) + id@(L2)",
    "const(-1)@(L4-L1) + chi(3)@(L1)", "chi(-2)@(1) + const(1)@(L1*L3)",
    "chi(1)@(L1*L2+3)", "const(1)@(L4)",
]
RIGHT_OPS = [
    "chi(0)@(L1)", "chi(1)@(L2)", "chi(-1)@(L1+1)", "chi(2)@(L2-L1)",
    "chi(-2)@(2*L1)", "chi(3)@(L1*L1)", "const(1)@(L2+3)", "const(-1)@(L1)",
    "const(2)@(1)", "id@(L1)", "id@(L2-L1)", "chi(0)@(L2) + const(1)@(L1)",
    "chi(1)@(L1+1) + id@(L1*L1)", "const(1)@(1) + chi(2)@(L2)",
    "chi(-1)@(L2+3) + chi(0)@(2*L1)",
]
# the action's cost depends strongly on the sample elements, so they are
# fixed: every seed then asks for the same work
SAMPLE_SEED = 0


def compose_act_spec(rng: random.Random, tiny: bool = False) -> dict:
    """The 300 operand-string pairs of LEFT_OPS x RIGHT_OPS in seeded order,
    at trunc 8 and W 16."""
    pairs = [[lhs, rhs] for lhs in LEFT_OPS for rhs in RIGHT_OPS]
    rng.shuffle(pairs)
    return {"trunc": 8, "window": 16, "pairs": pairs[:6] if tiny else pairs,
            "sample_seed": SAMPLE_SEED}
