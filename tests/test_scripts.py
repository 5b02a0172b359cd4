"""The scripts under ``scripts/`` run on the library as it stands."""

import subprocess
import sys
from pathlib import Path

from conftest import package_env
from pricelab.ann import TrainingConfig
from pricelab.dataset import GeneratorParams
from pricelab.evaluation import AnnFamily, learning_curve, learning_curve_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_learning_curve_script_writes_the_in_process_curve_and_no_stderr(tmp_path):
    """In a process of its own, where no test harness captures warnings and,
    given two CPUs, the cells run on forked workers (os.fork may warn on
    newer Pythons), the script exits 0, leaves stderr empty and writes the
    CSV of the same curve computed in this process.  The ladder reaches
    2000 epochs, where two of the four cells find a threshold, so the CSV
    holds numbers."""
    out = tmp_path / "curve.csv"
    done = subprocess.run(
        [sys.executable, SCRIPTS / "learning_curve.py", "--sizes", "100", "200",
         "--seeds", "0", "1", "--max-epochs", "2000", "--out", out],
        capture_output=True, text=True, env=package_env(),
    )
    assert (done.returncode, done.stderr) == (0, "")
    curve = learning_curve(
        AnnFamily(training=TrainingConfig(learning_rate=0.4)),
        GeneratorParams(noise_scale=1500.0, noise_outlier_rate=0.0),
        sizes=[100, 200], seeds=[0, 1], steps=tuple(range(100, 2001, 100)),
    )
    assert sum(t is not None for _, _, t in curve.cells) == 2
    assert out.read_text() == learning_curve_csv(curve)
