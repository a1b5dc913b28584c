"""Check reports when properties fail, and the report-shape boundary.

The passing reports are pinned by `tests/test_cli_digests.py`.  Here a few
names inside `checks` and `loopgrade` are replaced by wrong versions, so
that every suite fails somewhere, and the sha256 of each failing report is
pinned: the JSON and text of `check <suite>` and the library reports of
`check_looping_axioms` and `main_relations_check`, with their witness lists.

Only `report` knows the report shape: no other module writes the keys that
hold witnesses.
"""

import ast
import hashlib
import json
import pathlib

import pytest

import lambdaops
from lambdaops import checks, cli, loopgrade
from lambdaops.errors import RegistrationFailure, WindowExhausted
from lambdaops.report import SKIP, Prop, suite_report


@pytest.fixture
def broken(monkeypatch):
    """Make at least one property of every suite fail."""
    colinear, compose_even = checks.colinear, checks.compose_even
    comult_entry, loop_polynomial = loopgrade.comult_entry, loopgrade.loop_polynomial
    loop_odd = loopgrade.loop_odd

    def bad_colinear(kappa, x):
        return colinear(kappa, x) + (1 if kappa == 2 else 0)

    def bad_validate_model(model, max_k, rng):
        raise RegistrationFailure(f"{model.name}: forced failure at k={max_k}")

    monkeypatch.setattr(checks, "colinear", bad_colinear)
    monkeypatch.setattr(checks, "compose_even", lambda r, s: 2 * compose_even(r, s))
    monkeypatch.setattr(loopgrade, "compose_even", lambda r, s: 2 * compose_even(r, s))
    monkeypatch.setattr(loopgrade, "comult_entry", lambda r, rho, s: 3 * comult_entry(r, rho, s))
    monkeypatch.setattr(loopgrade, "loop_polynomial", lambda k: 2 * loop_polynomial(k))
    # loop_odd reads loop_polynomial too, so only this breaks the main relations
    monkeypatch.setattr(loopgrade, "loop_odd", lambda x, window: 2 * loop_odd(x, window))
    monkeypatch.setattr(checks, "validate_model", bad_validate_model)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# (suite, window) -> sha256 of the JSON and of the text stdout
FAILING_CHECKS = {
    ("all", 16): ("c6fc5ea6b3b11d3218b30388655caa68ce705ab1e084b18bc3062b343b09057a",
                  "8f496c41e4b79c24475aa311e1c5e78415788c48c5d2b8584f559670330d97bc"),
    ("biring", 4): ("5a569434b80a580a41091826d7d126483e1c82c6e2ad7a18c7844f88256c3bac",
                    "e62689b7ca1e4fc5f92a9772c25b50ce8c9ae7e337ee5d93b291c2018c716a45"),
    ("biring", 16): ("5a569434b80a580a41091826d7d126483e1c82c6e2ad7a18c7844f88256c3bac",
                     "e62689b7ca1e4fc5f92a9772c25b50ce8c9ae7e337ee5d93b291c2018c716a45"),
    ("compose", 4): ("6f96c4d2e551439112d57d0a6f3490dc7545aac874618ce9c20256e2bb65d32b",
                     "89e0e1264d5804158eefef4f7a8d37c4d6799c27ca2a44f7399f0da2a5e1d412"),
    ("compose", 16): ("b64fd27b0022775611672efdb3a8447edb1953b6cda0166cad01cef6b34a5efc",
                      "4c5b349ecae817cf3246b6ff1b1dd098b98bd0017d14fb22a0eab89922bd8cb2"),
    ("looping", 4): ("497f30df361cd6428249f5ef0d6b4e12aaf0d0aa173fe5d3867b6035b18d34ce",
                     "b1ed4c5de8a922ea4e4ee24dbb4d45aeb87a68656fd7739ef14359f21f89f806"),
    ("looping", 16): ("072d41140254c57075d5c357f415bfea629bcbd7c2c5eeba46bfa35ba90cf6e6",
                      "b1ed4c5de8a922ea4e4ee24dbb4d45aeb87a68656fd7739ef14359f21f89f806"),
    ("main", 4): ("3ed8a5bb156fbf4d50bd0c8dece6b7812d16059efe6fc730197ba4289a75d5a8",
                  "bee93cb87dd92ecaa5fe7103cc9f67bdcf4df8327b8fe75ddfb99b4eb39bcbe1"),
    ("main", 16): ("fd34de43504b8269e937f3616080891a775b0902ddf3559942c1ce7277f0067f",
                   "9eed4cc3d2a3b129786a9c107cecf8f23f368ec85896e4293d67d842e5318316"),
    ("models", 4): ("5f5b39ee91fd86bb8dfd9622367f68f9f954fc2faa312eed6c2c29cd90248d72",
                    "55d8445c6c20604ce00278a7327c6bb83154477bc9fb5737e89a225cbdf9905e"),
    ("models", 16): ("5f5b39ee91fd86bb8dfd9622367f68f9f954fc2faa312eed6c2c29cd90248d72",
                     "55d8445c6c20604ce00278a7327c6bb83154477bc9fb5737e89a225cbdf9905e"),
}


@pytest.mark.parametrize("suite, window", sorted(FAILING_CHECKS))
def test_failing_check_output_is_pinned(broken, capsys, suite, window):
    got = []
    for fmt in ("json", "text"):
        argv = ["check", suite, "--trunc", "5", "--window", str(window), "--seed", "1",
                "--format", fmt]
        assert cli.main(argv) == 1
        out = capsys.readouterr().out
        got.append(_sha(out))
    assert tuple(got) == FAILING_CHECKS[suite, window]


def test_failing_library_reports_are_pinned(broken):
    looping = loopgrade.check_looping_axioms(4, 8)
    main = loopgrade.main_relations_check(3, 4, 8)
    assert not looping["pass"] and not main["pass"]
    got = [_sha(json.dumps(rep)) for rep in (looping, main)]
    assert got == ["a2806cbb8f3b9b7eb953736e7e5bdaf07e31392f05d9a612436b6a3a9328e547",
                   "79ccd324510851d29cece40cde8fdbed0aa41f1d5ea0bce9909f5db936f1c183"]


def test_a_witness_is_built_only_for_a_failing_instance():
    prop = Prop("p")
    prop.check(True, lambda: pytest.fail("witness built for a passing instance"))
    for i in range(7):
        prop.check(False, lambda: f"w{i}")

    def outside_the_window():
        raise WindowExhausted("outside")

    with SKIP:
        prop.check(outside_the_window(), lambda: "skipped")
    assert prop.instances == 8 and len(prop.witnesses) == 7
    assert suite_report("s", {}, [prop])["properties"] == [
        {"id": "p", "instances": 8, "pass": False, "counterexample": "w0"}]
    assert prop.entry("p") == {"p": "p", "instances": 8, "pass": False,
                               "witnesses": ["w0", "w1", "w2", "w3", "w4"]}


PACKAGE = pathlib.Path(lambdaops.__file__).parent
WITNESS_KEYS = {"counterexample", "witnesses"}


def _witness_keys(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    return [(n.lineno, n.value) for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and n.value in WITNESS_KEYS]


def test_report_writes_the_witness_keys():
    assert {key for _, key in _witness_keys("report")} == WITNESS_KEYS


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE.glob("*.py")
                                        if p.stem != "report"))
def test_only_report_writes_the_witness_keys(name):
    found = _witness_keys(name)
    assert not found, f"{name} writes a report key of report.py: {found}"
