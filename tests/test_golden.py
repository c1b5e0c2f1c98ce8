"""CLI reports stay byte-identical to the committed goldens in tests/golden/.

Each golden file opens with one `# env ...` line naming the numpy, scipy
and BLAS builds that wrote it; the rest is the command's output verbatim.
The commands run in-process through `bellsub.cli.main`.  A change meant to
move no number passes unchanged.  A change that moves a report on purpose
rewrites the goldens with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which numbers moved and why.  Another numpy or BLAS
may round a reduction differently, so a mismatch of the `# env` line skips
with both builds named; nothing else skips.  The bit-for-bit tests of the
2x2 rotations in test_martingales.py skip by the same rule: another BLAS may
fuse other steps of its QR.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from bellsub import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "simulate-seed1.csv": ["simulate", "--seed", "1", "--depth", "10", "--num", "20"],
    "telescope-seed2.csv": ["telescope", "--seed", "2"],
    # anchored rows of 4 and 8: numpy sums rows of PAIRWISE_MIN = 8 or more
    # pairwise, so from dim 7 on the telescope's virtual anchor keeps the
    # anchored rows' bits only because `row_sum` builds its `lead` column
    "telescope-seed3-dim3.csv": ["telescope", "--seed", "3", "--dim", "3",
                                 "--depth", "10", "--num", "6"],
    "telescope-seed4-dim7.csv": ["telescope", "--seed", "4", "--dim", "7",
                                 "--depth", "6", "--num", "4"],
    "sharpness-depth10.csv": ["sharpness", "--delta-grid", "-0.9:-0.1:5",
                              "--depth", "10"],
    # at Q = 2 about one tau in nine is clipped to an edge of the band
    "tau-sweep-Q2.csv": ["tau-sweep", "--Q", "2", "--samples", "256", "--seed", "3"],
}
CASES.update({f"certify-Q{q}.txt": ["certify", "--samples", "4096", "--seed", "3",
                                    "--Q", str(q)] for q in (2, 10, 16, 256)})


def env_line():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# env numpy {np.__version__} scipy {scipy.__version__} "
            f"blas {blas['name']} {blas['version']}\n")


def render(argv, out):
    """The report `bellsub <argv>` writes, and its exit code."""
    code = cli.main(argv + ["--out", str(out)])
    return out.read_text(), code


def _runs():
    for name, argv in CASES.items():
        jobs = ((["--jobs", "1"], ["--jobs", "2"]) if argv[0] == "certify" else ([],))
        for extra in jobs:
            yield pytest.param(name, argv + extra, id="-".join([name] + extra[1:]))


def skip_unless_golden_env(name):
    """Skip, naming both builds, unless this host runs the numpy, scipy and
    BLAS builds that wrote the golden `name`; else return its report."""
    recorded, expected = (GOLDEN / name).read_text().split("\n", 1)
    if recorded + "\n" != env_line():
        pytest.skip(f"golden written under {recorded[2:]!r}, this host has "
                    f"{env_line()[2:-1]!r}")
    return expected


@pytest.mark.parametrize("name, argv", list(_runs()))
def test_report_matches_golden(tmp_path, name, argv):
    expected = skip_unless_golden_env(name)
    text, code = render(argv, tmp_path / "out")
    assert code == cli.EXIT_OK
    assert text == expected, f"{name} moved from its golden"


def test_every_golden_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            text, code = render(argv, Path(tmp) / "out")
            if code != cli.EXIT_OK:
                sys.exit(f"bellsub {' '.join(argv)} exited {code}")
            (GOLDEN / name).write_text(env_line() + text)
            print(f"wrote {GOLDEN / name}")
