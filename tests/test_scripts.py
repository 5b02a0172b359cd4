"""The scripts under ``scripts/`` run on the library as it stands, and the
benchmark's tracer still finds the names it reads."""

import importlib
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from conftest import package_env
from pricelab.ann import TrainingConfig
from pricelab.dataset import GeneratorParams
from pricelab.evaluation import AnnFamily, learning_curve, learning_curve_csv

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


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


def test_the_benchmark_tracer_counts_train_epochs_from_a_training_config(monkeypatch):
    """``perfbench/tracer.py`` counts the epochs ``ann.train`` ran from the
    caller's ``TrainingConfig`` (its patience and epoch cap), with no
    config given, at the defaults and at the learning rate of the
    benchmark's ``curve`` workload."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    for stopped, epochs in ((10, 110), (1950, 2000)):
        model = SimpleNamespace(stopped_epoch=stopped)
        assert tracer._epochs_of_train((), {}, model) == epochs
        for training in (TrainingConfig(), TrainingConfig(learning_rate=0.4)):
            assert tracer._epochs_of_train((), {"training": training}, model) == epochs
