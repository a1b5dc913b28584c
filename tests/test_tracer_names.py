"""Every name the benchmark's span tracer wraps still exists.

`perfbench/tracer.py` patches functions, methods and caches by name from
outside the package, so a refactor that renames or drops one of them breaks
only the traced benchmark run.  Installing the tracer in a fresh process
turns that into a test failure here.
"""

import json
import os
import os.path as osp
import subprocess
import sys

ROOT = osp.dirname(osp.dirname(osp.abspath(__file__)))

CODE = """
import json, tracer
t = tracer.Tracer()
t.install()
print(json.dumps({"listed": tracer.CACHES, "sizes": t.cache_sizes()}))
"""


def test_tracer_installs_and_finds_every_cache():
    path = [osp.join(ROOT, "src"), osp.join(ROOT, "perfbench")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    got = subprocess.run([sys.executable, "-c", CODE], capture_output=True, text=True,
                         env=env)
    assert got.returncode == 0, got.stderr
    out = json.loads(got.stdout)
    listed = sorted(attr for attrs in out["listed"].values() for attr in attrs)
    assert listed and sorted(out["sizes"]) == listed
