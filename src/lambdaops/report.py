"""The one shape of a check report.

`Prop` records one property: how many instances were checked and the
witness text of each failure.  A `check` suite reports each property with
its first witness as `counterexample`, and `report_lines` renders that
report as text; the library checks of `loopgrade` keep the first five
witnesses of each property.

An instance that needs an augmentation outside the window raises
`WindowExhausted`; inside `with SKIP:` it is skipped and not counted.  The
draws of a suite do not depend on which instances are skipped.
"""

from __future__ import annotations

import contextlib
from typing import Callable

from .errors import WindowExhausted

SKIP = contextlib.suppress(WindowExhausted)


class Prop:
    def __init__(self, name, instances: int = 0, witnesses=()):
        self.name = name
        self.instances = instances
        self.witnesses = list(witnesses)

    @classmethod
    def from_entry(cls, name, entry: dict) -> "Prop":
        return cls(name, entry["instances"], entry["witnesses"])

    def check(self, holds: bool, witness: Callable[[], str]) -> None:
        """Count one instance; only if it fails is `witness()` called and kept."""
        self.instances += 1
        if not holds:
            self.witnesses.append(witness())

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def entry(self, key: str) -> dict:
        """The library form, with the name under `key`."""
        return {key: self.name, "instances": self.instances, "pass": self.passed,
                "witnesses": self.witnesses[:5]}


def _passed(props) -> bool:
    return all(p.passed for p in props)


def axioms_report(config: dict, props: list[Prop]) -> dict:
    return {"config": config, "axioms": {p.name: p.entry("id") for p in props},
            "pass": _passed(props)}


def relations_report(config: dict, props: list[Prop]) -> dict:
    return {"config": config, "relations": [p.entry("p") for p in props],
            "pass": _passed(props)}


def suite_report(suite: str, config: dict, props: list[Prop]) -> dict:
    properties = [{"id": p.name, "instances": p.instances, "pass": p.passed,
                   "counterexample": p.witnesses[0] if p.witnesses else None}
                  for p in props]
    return {"suite": suite, "config": config, "properties": properties,
            "pass": _passed(props)}


def all_report(config: dict, reports: list[dict]) -> dict:
    return {"suite": "all", "config": config, "suites": reports,
            "pass": all(r["pass"] for r in reports)}


def report_lines(report: dict) -> list[str]:
    if "suites" in report:
        lines = [line for sub in report["suites"] for line in report_lines(sub)]
        return lines + [f"ALL: {'PASS' if report['pass'] else 'FAIL'}"]
    lines = []
    for prop in report["properties"]:
        status = "PASS" if prop["pass"] else "FAIL"
        line = f"{report['suite']}/{prop['id']}: {status} ({prop['instances']} instances)"
        if prop["counterexample"]:
            line += f" first counterexample: {prop['counterexample']}"
        lines.append(line)
    return lines + [f"{report['suite']}: {'PASS' if report['pass'] else 'FAIL'}"]
