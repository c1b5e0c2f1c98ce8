"""The benchmark's tracing targets name module attributes that exist, and
the keyword forms its workloads call still work.

`perfbench/tracing.py` wraps each (module, attribute) pair of its TARGETS
with `getattr` and no default, so an attribute dropped from a bellsub module
would break every traced benchmark run.  The file uses only the standard
library and is loaded by path.

`perfbench/workloads.py` passes `seed=` to `check_c1_across_cuts`,
`sharpness_experiment` and `verify_main_theorem`, which all ignore it; the
parameter must stay until the workloads stop passing it.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import bellsub as bs
from bellsub import certify as ct
from bellsub import estimates as est
from bellsub import martingales as mg
from bellsub import sharpness as sh
from bellsub import weights as wt

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracing_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(mod, attr) for mod, attr, *_ in tracing.TARGETS
               if not hasattr(importlib.import_module(mod), attr)]
    assert tracing.TARGETS and not missing


def test_benchmark_keyword_forms_are_accepted():
    cfg = bs.BellmanConfig(Q=16.0)
    assert ct.check_c1_across_cuts(cfg, seed=3) == ct.check_c1_across_cuts(cfg)
    rows, _ = sh.sharpness_experiment([-0.5, -0.8], 4, seed=3)
    assert rows == sh.sharpness_experiment([-0.5, -0.8], 4)[0]
    rng = np.random.default_rng(3)
    X = mg.random_martingale(mg.SimConfig(depth=3, dim=2), rng)
    Y = mg.transform(X, [np.ones(2 ** k) for k in range(3)], sigma0=1.0)
    w = wt.power_weight_family(-0.5, 3)
    assert est.verify_main_theorem(X, Y, w, 10.0, seed=3)["pass"]
