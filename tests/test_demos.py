"""Every demo runs to completion and prints exactly its golden transcript."""

import os
import os.path as osp
import subprocess
import sys

import pytest

HERE = osp.dirname(osp.abspath(__file__))
DEMOS = osp.join(osp.dirname(HERE), "demos")
GOLDEN = osp.join(HERE, "golden")


@pytest.mark.parametrize("script", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_output(script):
    got = subprocess.run([sys.executable, osp.join(DEMOS, script)],
                         capture_output=True, text=True)
    assert got.returncode == 0, got.stderr
    with open(osp.join(GOLDEN, f"demo_{script[:2]}.txt")) as fh:
        assert got.stdout == fh.read()
