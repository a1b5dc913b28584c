"""The command-line reader `cli.parse_args` against the argparse parser it
replaced (`helpers.build_parser`), and the CLI contract over the same seeded
corpus of command lines."""

import contextlib
import io
import pathlib
import random
import subprocess
import sys

from helpers import build_parser, reference_parse_args
from lambdaops import cli

# Every attribute a cmd_* function reads.
ATTRS = ("trunc", "window", "format", "seed", "model", "fn",
         "kind", "indices", "lhs", "rhs", "op", "element", "suite")

OPERANDS = ["identity", "id@L1", "chi(1)@L2", "chi(2)@L1 + const(-1)@L1", "L1", "L2 - L1*L1",
            "l1", "l2", "l1*l2 + 3*l3", "identity o chi(2)@L1", "- L1", "nonsense("]
ELEMENTS = ["1", "-5", "-1", "3", "u", "x1", "2*u + 1"]
FLAG_VALUES = {"trunc": ["1", "2", "3"], "window": ["1", "2", "3", "4"],
               "format": ["json", "text"], "seed": ["0", "1", "7"],
               "model": ["zz", "sphere", "cp:2", "split:2", "coi"]}


def _command(rng):
    """One command and its positionals, now and then with a wrong count."""
    name = rng.choice(["upoly", "compose", "act", "loop", "coprod"] * 2 + ["check"])  # suites cost most
    if name == "upoly":
        kind = rng.choice(["pk", "pij", "plin", "psi"])
        count = 2 if kind == "pij" else 1
        rest = [kind, *(rng.choice(["1", "2", "3", "-1"]) for _ in range(count))]
    elif name == "compose":
        rest = rng.sample(OPERANDS, rng.choice([1, 2, 2]))
    elif name == "act":
        rest = [rng.choice(OPERANDS), rng.choice(ELEMENTS)]
    elif name == "loop":
        rest = [rng.choice(OPERANDS)]
    elif name == "coprod":
        rest = [rng.choice(["add", "mul"]), rng.choice(OPERANDS)]
    else:
        rest = [rng.choice(["biring", "compose", "looping", "models", "main", "all"])]
    return [name, *rest]


def _flag(rng):
    """One flag as `--name value` or `--name=value`, the name maybe cut to a prefix."""
    name = rng.choice(list(FLAG_VALUES))
    spelled = "--" + name[:rng.randint(1, len(name))] if rng.random() < 0.3 else "--" + name
    value = rng.choice(FLAG_VALUES[name])
    return [f"{spelled}={value}"] if rng.random() < 0.3 else [spelled, value]


def _mutate(rng, argv):
    what = rng.randrange(8)
    at = rng.randint(0, len(argv))
    if what == 0 and argv:
        del argv[min(at, len(argv) - 1)]
    elif what == 1 and argv and argv[min(at, len(argv) - 1)] != "--":
        argv.insert(at, argv[min(at, len(argv) - 1)])  # a duplicated token
    elif what == 2 and len(argv) > 1:
        i, j = rng.sample(range(len(argv)), 2)
        argv[i], argv[j] = argv[j], argv[i]
    elif what == 3:
        argv.insert(at, rng.choice(["--bogus", "-x", "--trunk", "--formats=json", "-L2"]))
    elif what == 4 and argv:
        argv[min(at, len(argv) - 1)] = rng.choice(["x", "3.5", "", "0", "-2", "0x3"])  # bad ints
    elif what == 5 and argv:
        argv[min(at, len(argv) - 1)] = rng.choice(["xml", "pq", "All", "mull"])  # bad choices
    elif what == 6:
        argv.append(rng.choice(["--trunc", "--model", "--format", "--se"]))  # no value
    else:
        argv.insert(at, "-L2")


def corpus(seed: int, n: int) -> list[list[str]]:
    """n command lines drawn from the grammar: every command, flags before,
    between and after the positionals, `=`, prefixes, `--`, negative numbers
    as positionals, repeated flags and help; about half of them then mutated."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        units = [[tok] for tok in _command(rng)]
        for _ in range(rng.choice([0, 1, 1, 2, 3, 4])):
            units.insert(rng.randint(0, len(units)), _flag(rng))
        if rng.random() < 0.15:
            units.insert(rng.randint(1, len(units)), ["--"])
        if rng.random() < 0.04:
            units.insert(rng.randint(0, len(units)), [rng.choice(["-h", "--help", "--he"])])
        argv = [tok for unit in units for tok in unit]
        if rng.random() < 0.5:
            for _ in range(rng.choice([1, 1, 2])):
                _mutate(rng, argv)
        out.append(argv)
    return out


CORPUS = corpus(2024, 2000)


def _outcome(parse, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            args = parse(list(argv))
        except SystemExit as exc:  # argparse printed its help
            return ("help", exc.code)
        except cli.ParseError:
            return ("error",)
    if args.fn is cli._help:
        return ("help", 0)
    return ("ok", *(getattr(args, name, None) for name in ATTRS),
            *(name for name in ATTRS if not hasattr(args, name)))


def test_corpus_covers_the_grammar():
    tokens = [tok for argv in CORPUS for tok in argv]
    assert set(tokens) >= set(cli.COMMANDS)
    for probe in ("--", "-5", "-L2", "--bogus", "-h", "--trunc=2", "--tr", "3.5", "xml"):
        assert probe in tokens, probe
    assert any(argv[:1] == ["--trunc"] for argv in CORPUS)
    assert any(argv[-1].startswith("--") and argv[-1] != "--" for argv in CORPUS)


def test_parser_matches_the_argparse_reference():
    reference = build_parser()
    kinds = {"ok": 0, "error": 0, "help": 0}
    for argv in CORPUS:
        want = _outcome(lambda a: reference_parse_args(a, reference), argv)
        assert _outcome(cli.parse_args, argv) == want, argv
        kinds[want[0]] += 1
    assert min(kinds.values()) >= 40, kinds


# Read differently from argparse on purpose: argparse (Python 3.11) drops a
# literal `--` that follows the separator from the argument it lands in.
SECOND_SEPARATOR = [
    (["act", "--", "L1", "--"], {"op": "L1", "element": "--"}),
    (["compose", "--", "l1", "--"], {"lhs": "l1", "rhs": "--"}),
    (["loop", "--", "--"], {"op": "--"}),
]


def test_a_second_separator_is_an_ordinary_argument():
    for argv, values in SECOND_SEPARATOR:
        args = cli.parse_args(argv)
        assert {name: getattr(args, name) for name in values} == values


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_contract_over_the_corpus():
    # cheap sizes: the corpus draws --trunc <= 3 and --window <= 4, and these
    # leading flags replace the defaults 5 and 16
    for argv in CORPUS:
        argv = ["--trunc", "3", "--window", "4", *argv]
        rc, out, err = _run(argv)
        assert rc in (0, 1), argv
        if rc == 0 or "check" in argv and (out.endswith(": FAIL\n") or '"pass":false' in out):
            assert err == "", argv  # success, or a suite that reports a failing property
        else:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)
        assert _run(argv) == (rc, out, err), argv


def test_help_comes_from_the_table_and_is_in_the_readme():
    rc, text, err = _run(["--help"])
    assert rc == 0 and err == ""
    for argv in (["-h"], ["-hh"], ["--he"], ["upoly", "--help"], ["check", "all", "-h"],
                 ["--trunc", "0", "--help"], ["loop", "a", "b", "--bogus", "-h"]):
        assert _run(argv) == (0, text, ""), argv
    for name, (line, *spec) in cli.COMMANDS.items():
        assert f"  {name} " in text and line in text
        assert all(shown in text for shown, conv in spec if not isinstance(conv, tuple))
    for name, (conv, default) in cli.FLAGS.items():
        assert f"--{name} " in text and f"default {default}" in text
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert f"```\n$ lambdaops --help\n{text}```" in readme


def test_startup_imports_no_argparse():
    code = ("import sys\nimport lambdaops.cli\nlambdaops.cli.main(['upoly', 'pk', '2'])\n"
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    got = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert got.returncode == 0 and got.stdout.splitlines()[-1] == "[]", got
