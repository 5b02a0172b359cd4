"""Top-level acceptance gate.

Each test is one deliverable property of the whole package, self-contained
and run at a fixed seed, with its wall-clock budget asserted alongside the
property itself.  ``pytest -v tests/test_acceptance.py`` prints one pass/fail
line per property.
"""

import time
from functools import partial

import numpy as np
import pytest
from pytest import approx

from conftest import gradient_check
from pricelab.ann import (
    NetworkTopology,
    TrainingConfig,
    init_weights,
    predict_ann,
    train,
)
from pricelab.artifacts import load_model
from pricelab.cli import main as cli_main, replay_manifest
from pricelab.dataset import (
    GeneratorParams,
    encode_dataset,
    generate_synthetic,
    load_csv,
    split_half,
)
from pricelab.evaluation import (
    FAMILIES,
    AnnFamily,
    GamFamily,
    accuracy_band,
    learning_curve,
    overfit_scan,
)
from pricelab.gam import SmoothConfig, fit_gam, interaction_scan, predict_gam
from pricelab.glm import fit_glm, predict_glm

TRUE_COEF = np.array([500.0, 4000.0, -1000.0, 1500.0, 2000.0, 6000.0])


def test_backprop_gradients_match_finite_differences():
    """Backprop matches central finite differences to 1e-5 on 20 seeds."""
    start = time.perf_counter()
    topology = NetworkTopology()  # 6-8-1
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        weights = init_weights(topology, seed)
        sample = (rng.uniform(-1.0, 2.0, size=6), float(rng.uniform(0.0, 1.0)))
        worst = max(worst, gradient_check(weights, sample, epsilon=1e-6))
    elapsed = time.perf_counter() - start
    print(f"worst relative gradient error {worst:.3e} in {elapsed:.2f}s")
    assert worst < 1e-5
    assert elapsed < 5.0


def test_glm_exact_recovery_and_normal_equations_oracle():
    """Noiseless recovery to 1e-8 and agreement with an independent
    normal-equations oracle to 1e-10 on noisy data."""
    start = time.perf_counter()
    clean = generate_synthetic(GeneratorParams(
        n=200, seed=0, base_cost=12000.0, interaction=0.0, noise_scale=0.0,
    ))
    model = fit_glm(clean)
    assert model.intercept == approx(12000.0, abs=1e-8)
    assert model.coef == approx(TRUE_COEF, abs=1e-8)

    noisy = generate_synthetic(GeneratorParams(n=80, seed=3))
    fitted = fit_glm(noisy)
    X, y = encode_dataset(noisy)
    design = np.hstack([np.ones((noisy.n, 1)), X])
    # Gauss-Jordan elimination with partial pivoting, no shared code path
    M = np.hstack([design.T @ design, (design.T @ y)[:, None]])
    for col in range(7):
        pivot = col + int(np.argmax(np.abs(M[col:, col])))
        M[[col, pivot]] = M[[pivot, col]]
        M[col] = M[col] / M[col, col]
        for row in range(7):
            if row != col:
                M[row] = M[row] - M[row, col] * M[col]
    oracle = M[:, -1]
    assert fitted.intercept == approx(oracle[0], rel=1e-10)
    assert fitted.coef == approx(oracle[1:], rel=1e-10)
    elapsed = time.perf_counter() - start
    print(f"noiseless and oracle checks in {elapsed:.2f}s")
    assert elapsed < 1.0


def test_gam_reduces_to_glm_and_reaches_penalized_optimum(gam_oracle):
    """Forced-linear GAM reproduces the GLM on every training point, and
    on 10 random datasets the fit's penalized objective is no higher than
    scipy's minimum of it beyond float noise."""
    start = time.perf_counter()
    data = generate_synthetic(GeneratorParams(n=100, seed=0))
    gam = fit_gam(data, smooth=SmoothConfig(force_linear=True))
    glm = fit_glm(data)
    X, _ = encode_dataset(data)
    gap = np.max(np.abs(predict_gam(gam, X) - predict_glm(glm, X)))
    assert gap < 1e-4

    worst = 0.0
    for seed in range(10):
        noisy = generate_synthetic(GeneratorParams(n=80, seed=seed))
        objective, minimum = gam_oracle.objective_and_minimum(fit_gam(noisy), noisy)
        worst = max(worst, objective / minimum - 1.0)
    elapsed = time.perf_counter() - start
    print(f"max prediction gap {gap:.2e}; worst excess over the scipy optimum "
          f"{worst:.1e} on 10 datasets in {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_interaction_scan_power_and_false_positive_rate():
    """The planted smoker x severity pair ranks first among exactly 15
    candidates; with no planted interaction the average flag rate over
    10 seeds stays at or below 10%."""
    start = time.perf_counter()
    strong = generate_synthetic(
        GeneratorParams(seed=0, interaction=12000.0, noise_scale=300.0)
    )
    base = fit_gam(strong)
    candidates = interaction_scan(strong, base, seed=0)
    assert len(candidates) == 15
    assert (candidates[0].i, candidates[0].j) == (3, 5)
    assert candidates[0].significant

    fractions = []
    for seed in range(10):
        null_data = generate_synthetic(GeneratorParams(seed=seed, interaction=0.0))
        null_base = fit_gam(null_data)
        null_candidates = interaction_scan(null_data, null_base, seed=seed)
        fractions.append(sum(c.significant for c in null_candidates) / 15.0)
    mean_rate = float(np.mean(fractions))
    elapsed = time.perf_counter() - start
    print(f"null flag rate {mean_rate:.3f} over 10 seeds in {elapsed:.1f}s")
    assert mean_rate <= 0.10
    assert elapsed < 120.0


def test_ann_accuracy_band_inside_gam_band():
    """Default pipeline at a fixed seed: the network's trimmed accuracy
    band sits inside the additive model's band."""
    start = time.perf_counter()
    data = generate_synthetic(GeneratorParams(seed=3))  # n = 200
    train_half, test_half = split_half(data, seed=3)
    gam = fit_gam(train_half)
    ann_model = train(train_half)
    gam_band = accuracy_band(partial(predict_gam, gam), test_half)
    ann_band = accuracy_band(partial(predict_ann, ann_model), test_half)
    elapsed = time.perf_counter() - start
    print(
        f"gam [{gam_band.ratio_min:.2f}, {gam_band.ratio_max:.2f}] contains "
        f"ann [{ann_band.ratio_min:.2f}, {ann_band.ratio_max:.2f}] ({elapsed:.1f}s)"
    )
    assert gam_band.ratio_min <= ann_band.ratio_min
    assert ann_band.ratio_max <= gam_band.ratio_max
    assert elapsed < 120.0


def test_ann_overfits_before_gam_on_shared_noisy_data():
    """Paired overfitting scans on the same noisy train half: both
    families detect a threshold and the network's is the lower one."""
    start = time.perf_counter()
    data = generate_synthetic(GeneratorParams(noise_scale=900.0, seed=2))
    train_half, _ = split_half(data, seed=2)
    ann_report = overfit_scan(
        AnnFamily(training=TrainingConfig(learning_rate=0.4)),
        train_half,
        steps=range(200, 8001, 200),
        seed=2,
    )
    gam_report = overfit_scan(GamFamily(), train_half, seed=2)
    elapsed = time.perf_counter() - start
    print(
        f"ann threshold {ann_report.threshold} vs gam {gam_report.threshold} "
        f"({elapsed:.1f}s)"
    )
    assert ann_report.threshold_found
    assert gam_report.threshold_found
    assert ann_report.threshold <= gam_report.threshold
    assert elapsed < 300.0


def test_overfitting_threshold_declines_with_sample_size():
    """Mean detected threshold is non-increasing in the sample size within
    one pooled standard error, over n in {100, 200, 400, 800} x 5 seeds."""
    start = time.perf_counter()
    curve = learning_curve(
        AnnFamily(training=TrainingConfig(learning_rate=0.4)),
        GeneratorParams(noise_scale=1500.0, noise_outlier_rate=0.0),
        sizes=(100, 200, 400, 800),
        seeds=(0, 1, 2, 3, 4),
        steps=tuple(range(100, 16001, 100)),
    )
    rows = curve.mean_thresholds()
    elapsed = time.perf_counter() - start
    print("rows:", [(n, None if m is None else round(m, 4), c) for n, m, _, c in rows],
          f"({elapsed:.0f}s)")
    assert all(count >= 1 for _, _, _, count in rows)
    for (_, mean_a, se_a, _), (_, mean_b, se_b, _) in zip(rows, rows[1:]):
        pooled = float(np.hypot(se_a, se_b))
        assert mean_b <= mean_a + pooled
    assert elapsed < 900.0


@pytest.fixture()
def cli_pipeline(tmp_path):
    """One full CLI run: gen, fit x3, predict, compare (all manifested)."""
    csv = tmp_path / "data.csv"
    ann_cfg = tmp_path / "ann.cfg"
    ann_cfg.write_text("max_epochs = 300\n")
    paths = {
        "csv": csv,
        "glm": tmp_path / "glm.model",
        "gam": tmp_path / "gam.model",
        "ann": tmp_path / "ann.model",
        "preds": tmp_path / "preds.csv",
        "report_md": tmp_path / "report.md",
        "report_csv": tmp_path / "report.csv",
    }
    assert cli_main(["gen", "--n", "100", "--seed", "3", "-o", str(csv)]) == 0
    for family in ("glm", "gam"):
        assert cli_main([
            "fit", "--family", family, "--in", str(csv), "--seed", "1",
            "-o", str(paths[family]),
        ]) == 0
    assert cli_main([
        "fit", "--family", "ann", "--in", str(csv), "--seed", "1",
        "--config", str(ann_cfg), "-o", str(paths["ann"]),
    ]) == 0
    assert cli_main([
        "predict", "--model", str(paths["glm"]), "--in", str(csv),
        "-o", str(paths["preds"]),
    ]) == 0
    assert cli_main([
        "compare", "--model", str(paths["glm"]), "--model", str(paths["gam"]),
        "--in", str(csv), "--seed", "1", "-o", str(tmp_path / "report"),
    ]) == 0
    return tmp_path, paths


def test_manifest_replay_is_byte_identical(cli_pipeline):
    """Replaying any stage's manifest rebuilds its outputs byte for byte
    (manifests themselves carry timestamps and are excluded)."""
    tmp_path, paths = cli_pipeline
    stages = [
        ("data.csv.manifest", ["data.csv"]),
        ("glm.model.manifest", ["glm.model", "glm.model.test-index"]),
        ("gam.model.manifest", ["gam.model", "gam.model.test-index"]),
        ("ann.model.manifest", ["ann.model", "ann.model.test-index"]),
        ("preds.csv.manifest", ["preds.csv"]),
        ("report.md.manifest", ["report.md", "report.csv"]),
    ]
    for manifest, outputs in stages:
        before = {name: (tmp_path / name).read_bytes() for name in outputs}
        for name in outputs:
            (tmp_path / name).unlink()
        assert replay_manifest(tmp_path / manifest) == 0
        for name in outputs:
            assert (tmp_path / name).read_bytes() == before[name], name
    print(f"replayed {len(stages)} manifests byte-identically")


def test_cli_predictions_equal_library_predictions(cli_pipeline):
    """The predict command's numbers equal one batch library prediction over
    the whole file exactly, for every model family."""
    tmp_path, paths = cli_pipeline
    data = load_csv(paths["csv"])
    for family in ("glm", "gam", "ann"):
        out = tmp_path / f"{family}_preds.csv"
        assert cli_main([
            "predict", "--model", str(paths[family]), "--in", str(paths["csv"]),
            "-o", str(out),
        ]) == 0
        model = load_model(paths[family])
        X, _ = encode_dataset(data)
        expected = FAMILIES[model.family].predict(model, X)
        lines = out.read_text().strip().splitlines()[1:]
        assert len(lines) == data.n
        for line, record_id, prediction in zip(lines, data.ids.tolist(), expected):
            cells = line.split(",")
            assert int(cells[0]) == record_id
            assert float(cells[1]) == prediction
    print("cli predictions identical to library for glm, gam, ann")
