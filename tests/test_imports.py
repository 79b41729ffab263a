"""Each CLI command loads only the numpy modules it runs, the sweeps load
no ``dataclasses`` or ``inspect`` either, and the package runs without
scipy.

The checks run in a fresh interpreter, since the test modules themselves
import numpy and scipy.  That interpreter first makes scipy unimportable
(``sys.modules["scipy"] = None``), so every public name and every
subcommand is shown to run without it, not only to leave it unloaded.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# the modules slow to import: numpy and scipy, and dataclasses with the
# inspect it loads (about 20 ms of a fresh sweep process)
_SCRIPT = """
import json, sys
sys.modules["scipy"] = None
sys.path.insert(0, sys.argv[1])
import cellbounds, cellbounds.cli
for argv in json.loads(sys.argv[2]):
    assert cellbounds.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m, module in sys.modules.items()
                        if module is not None
                        and m.split(".")[0] in ("numpy", "scipy",
                                                "dataclasses", "inspect"))))
"""


def heavy_modules_after(*commands):
    """Names of the numpy, scipy, dataclasses and inspect modules loaded
    after running ``commands`` in turn."""
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(SRC), json.dumps(commands)],
        capture_output=True, text=True, timeout=120, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_sweeps_load_no_scipy(tmp_path):
    # nor numpy: the analytic path computes on Python floats; nor
    # dataclasses and inspect
    commands = [[name, "--out", str(tmp_path / f"{name}.csv")]
                for name in ("bound-compare", "rate-vs-hk", "critical-power",
                             "hex-sweep")]
    assert heavy_modules_after(*commands) == set()


def test_verify_loads_no_scipy(tmp_path):
    loaded = heavy_modules_after(
        ["verify", "--trials", "1", "--out", str(tmp_path / "v.csv")])
    assert "numpy" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}


_IMPORT_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import cellbounds
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith("cellbounds.") or m == "numpy")))
"""


def test_import_loads_no_submodule_nor_numpy():
    done = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == []


PUBLIC_MODULES = ["bounds", "cli", "guarantees", "hexnet", "kernels",
                  "montecarlo", "pathloss", "pointset"]

_NAMES_SCRIPT = """
import json, sys, types
sys.modules["scipy"] = None
sys.path.insert(0, sys.argv[1])
import cellbounds
missing = [n for n in cellbounds.__all__ if not hasattr(cellbounds, n)]
missing += [m for m in json.loads(sys.argv[2])
            if not isinstance(getattr(cellbounds, m, None), types.ModuleType)]
namespace = {}
exec("from cellbounds import *", namespace)
missing += sorted(set(cellbounds.__all__) - set(namespace))
print(missing)
"""


def test_every_public_name_resolves():
    done = subprocess.run([sys.executable, "-c", _NAMES_SCRIPT, str(SRC),
                           json.dumps(PUBLIC_MODULES)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.strip() == "[]"
    import cellbounds
    with pytest.raises(AttributeError):
        cellbounds.no_such_name
    # private modules are not part of the namespace
    with pytest.raises(AttributeError):
        cellbounds.__getattr__("_shards")


def test_public_names_are_listed_once_in_order():
    import cellbounds
    assert cellbounds.__all__ == sorted(set(cellbounds.__all__))


_README_SCRIPT = """
import json, sys
sys.modules["scipy"] = None
sys.path.insert(0, sys.argv[1])
for block in json.loads(sys.argv[2]):
    namespace = {}
    exec(block, namespace)
    report = namespace["report"]
    assert report.records and not report.violations, report.summary()
"""


def test_readme_snippets_run_without_scipy(tmp_path):
    # each python block of README certifies the sites.csv it reads: a
    # reuse-3 lattice, written as a user's layout would be
    from cellbounds import lattice_factory, to_csv
    to_csv(lattice_factory(4 / math.sqrt(3.0), 40.0, 3),
           tmp_path / "sites.csv")
    readme = (SRC.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 2
    done = subprocess.run([sys.executable, "-c", _README_SCRIPT, str(SRC),
                           json.dumps(blocks)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
