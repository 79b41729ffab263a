"""Each CLI command loads only the numpy and scipy modules it runs.

The checks run in a fresh interpreter, since the test modules themselves
import numpy and scipy.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import cellbounds, cellbounds.cli
for argv in json.loads(sys.argv[2]):
    assert cellbounds.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("numpy", "scipy"))))
"""


def numeric_modules_after(*commands):
    """Names of the numpy and scipy modules loaded after running
    ``commands`` in turn."""
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(SRC), json.dumps(commands)],
        capture_output=True, text=True, timeout=120, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_sweeps_load_no_scipy(tmp_path):
    # nor numpy: the analytic path computes on Python floats
    commands = [[name, "--out", str(tmp_path / f"{name}.csv")]
                for name in ("bound-compare", "rate-vs-hk", "critical-power",
                             "hex-sweep")]
    assert numeric_modules_after(*commands) == set()


def test_verify_loads_spatial_but_not_integrate(tmp_path):
    loaded = numeric_modules_after(
        ["verify", "--trials", "1", "--out", str(tmp_path / "v.csv")])
    assert "numpy" in loaded
    assert "scipy.spatial" in loaded
    assert "scipy.integrate" not in loaded


_NAMES_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import cellbounds
names = cellbounds.__all__ + ["kernels", "montecarlo", "pointset"]
missing = [n for n in names if not hasattr(cellbounds, n)]
namespace = {}
exec("from cellbounds import *", namespace)
missing += sorted(set(cellbounds.__all__) - set(namespace))
print(missing)
"""


def test_every_public_name_resolves():
    done = subprocess.run([sys.executable, "-c", _NAMES_SCRIPT, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.strip() == "[]"
    import cellbounds
    with pytest.raises(AttributeError):
        cellbounds.no_such_name
