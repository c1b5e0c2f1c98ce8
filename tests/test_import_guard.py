"""`import bellsub` loads numpy alone; scipy is imported where it is called.

scipy serves one side analysis, the ARPACK f-steps of the sharpness search
(`scipy.sparse.linalg`, in `bellsub.sharpness`).  The mollified `H4` grid
(`bellsub.mollify`) transforms with `numpy.fft`, and its one-leg check reads
the grid at its nodes, so together they load no scipy module at all.
Loading scipy at import time cost every command, `--help` included, about
0.7 s.  This test keeps it out of the import path in two ways:

- a static scan of `src/bellsub/*.py` for an `import scipy...` or
  `from scipy... import` outside a function body, named by file:line;
- fresh interpreters that import the package or run one command through
  `cli.main`, then list the `scipy` modules that were loaded.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

from bellsub import weights as wt
from source_rules import SRC, sources


def _is_scipy(name):
    return name == "scipy" or name.startswith("scipy.")


def import_time_scipy(path):
    """file:line of every scipy import that runs when the module is imported:
    everywhere but inside a function body."""
    found = []
    todo = [ast.parse(path.read_text(), filename=str(path))]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if (isinstance(node, ast.Import) and any(_is_scipy(a.name) for a in node.names)
                or isinstance(node, ast.ImportFrom) and not node.level
                and _is_scipy(node.module or "")):
            found.append(f"{path.name}:{node.lineno}")
        todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


def scipy_loaded(code):
    """The sorted `scipy` modules in `sys.modules` after `code` runs in a
    fresh interpreter that finds bellsub in src/."""
    probe = (f"{code}\nimport sys, json\n"
             "print(json.dumps(sorted(k for k in sys.modules if k == 'scipy' "
             "or k.startswith('scipy.'))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_guard_recognizes_each_spelling(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import scipy\n"
                   "import numpy, scipy.fft as F\n"
                   "from scipy.interpolate import RegularGridInterpolator\n"
                   "try:\n"
                   "    from scipy import fft\n"
                   "except ImportError:\n"
                   "    pass\n"
                   "class C:\n"
                   "    from scipy.sparse import linalg\n"
                   "    def method(self):\n"
                   "        from scipy.sparse.linalg import eigsh\n"
                   "def f():\n"
                   "    import scipy.fft\n"
                   "g = lambda: __import__('scipy')\n"
                   "from .scipy import x\n"
                   "import scipyish\n")
    assert import_time_scipy(src) == ["m.py:1", "m.py:2", "m.py:3", "m.py:5", "m.py:9"]


def test_no_module_imports_scipy_at_import_time():
    found = [hit for path in sources() for hit in import_time_scipy(path)]
    assert not found, f"scipy imported at module level: {', '.join(found)}"


def test_import_loads_no_scipy():
    assert scipy_loaded("import bellsub, bellsub.cli") == []


@pytest.mark.parametrize("argv", [
    ["certify", "--samples", "256", "--seed", "1"],
    ["tau-sweep", "--samples", "64", "--seed", "1"],
    ["simulate", "--depth", "4", "--num", "2", "--seed", "1"],
    ["telescope", "--depth", "4", "--num", "2", "--seed", "1"],
    ["truncate", "--a", "2"],
], ids=lambda argv: argv[0])
def test_numpy_commands_load_no_scipy(tmp_path, argv):
    if argv[0] == "truncate":
        wfile = tmp_path / "w.txt"
        wt.save(wt.power_weight_family(-0.5, 4), wfile)
        argv = argv + ["--weight-file", str(wfile)]
    argv = argv + ["--out", str(tmp_path / "out")]
    code = f"from bellsub import cli\nassert cli.main({argv!r}) == 0"
    assert scipy_loaded(code) == []


def test_sharpness_loads_only_the_eigensolver():
    loaded = scipy_loaded("from bellsub import cli\nassert cli.main(['sharpness', "
                          "'--delta-grid', '-0.8:-0.5:3', '--depth', '6']) == 0")
    assert "scipy.sparse.linalg" in loaded
    assert "scipy.fft" not in loaded and "scipy.interpolate" not in loaded


def test_mollification_and_its_one_leg_check_load_no_scipy():
    loaded = scipy_loaded("import bellsub as bs\n"
                          "cfg = bs.BellmanConfig(Q=16.0)\n"
                          "spec = bs.default_grid_spec(cfg, cells=2)\n"
                          "moll = bs.mollify_h4(cfg.ell, spec)\n"
                          "assert len(bs.composite_one_leg_margins(moll, cfg)) > 0")
    assert loaded == []
