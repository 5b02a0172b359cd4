"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop: one client in one process, the next
operation sent only after the previous one returned.  An operation is one
CLI command, run in-process through ``pricelab.cli.main(argv)``, or one
library call.  It fails on a non-zero exit, a ``SystemExit``, an exception
or a failed output check, and the benchmark counts it either way.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import shutil
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FAMILIES = ("glm", "gam", "ann")


@dataclass
class Op:
    label: str
    phase: str
    seconds: float = 0.0
    value: object = None
    error: str | None = None
    stderr: str = ""
    rows: int = 0


@dataclass
class Runner:
    """Runs operations in a scratch directory and records their outcomes."""

    work: Path
    phase: str = "setup"
    tracer: object = None
    ops: list[Op] = field(default_factory=list)
    digests: dict[str, set[str]] = field(default_factory=dict)
    wrong: list[str] = field(default_factory=list)

    def call(self, label: str, fn) -> Op:
        op = Op(label, self.phase)
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"op.{label}") if self.tracer else nullcontext()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err), span:
                op.value = fn()
        except SystemExit as exc:
            op.error = f"SystemExit({exc.code})"
        except Exception as exc:  # every operation is attempted and counted
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - start
        lines = err.getvalue().strip().splitlines()
        op.stderr = lines[-1] if lines else ""
        self.ops.append(op)
        return op

    def cli(self, label: str, argv: list[str]) -> Op:
        import pricelab.cli

        op = self.call(label, lambda: pricelab.cli.main(argv))
        if op.error is None and op.value != 0:
            op.error = f"exit {op.value}: {op.stderr}"
        return op

    def check(self, op: Op, ok: bool, message: str) -> bool:
        """A failed check fails the operation and, if the operation had
        completed, marks the run's outputs as wrong."""
        if not ok and op.error is None:
            op.error = f"check failed: {message}"
            self.wrong.append(f"{op.label}: {message}")
        return ok

    def digest(self, name: str, path: Path) -> None:
        if path.is_file():
            sha = hashlib.sha256(path.read_bytes()).hexdigest()
            self.digests.setdefault(name, set()).add(sha)

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


# -- reading outputs back ---------------------------------------------------


def _read_columns(path: Path, *names: str) -> dict[str, list[str]]:
    """The named columns of a CSV file, without keeping a dict per row."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        index = [header.index(name) for name in names]
        columns: list[list[str]] = [[] for _ in names]
        for row in reader:
            for column, i in zip(columns, index):
                column.append(row[i])
    return dict(zip(names, columns))


_ATTRIBUTES = ("id", "gender", "age", "income", "smoke", "previous_claim")


def _truth(cols: dict[str, list[str]]) -> np.ndarray:
    """Noise-free expenditure of each generated customer.

    This is the formula documented on ``GeneratorParams``, evaluated on the
    CSV attributes encoded as ``DEFAULT_ENCODING`` encodes them:

        eta = base_cost + sum_j coef_j * x_j + age_curvature * x_age^2
              + interaction * x_smoker * x_claim_severity
        truth = softplus(eta)
    """
    from pricelab.dataset import DEFAULT_ENCODING, GeneratorParams

    p = GeneratorParams()
    enc = DEFAULT_ENCODING
    severity = {claim.value: s for claim, s in enc.claim_severity.items()}
    (age_lo, age_hi), (inc_lo, inc_hi) = enc.age_range, enc.income_range
    age = np.array(cols["age"], dtype=float)
    income = np.array(cols["income"], dtype=float)
    x_gender = np.array([g == "male" for g in cols["gender"]], dtype=float)
    x_age = np.clip((age - age_lo) / (age_hi - age_lo), 0.0, 1.0)
    x_income = np.clip((income - inc_lo) / (inc_hi - inc_lo), 0.0, 1.0)
    x_smoker = np.array([v == "yes" for v in cols["smoke"]], dtype=float)
    x_claim = np.array([c != "none" for c in cols["previous_claim"]], dtype=float)
    x_severity = np.array([severity[c] for c in cols["previous_claim"]])
    eta = (
        p.base_cost
        + p.coef_gender * x_gender
        + p.coef_age * x_age
        + p.coef_income * x_income
        + p.coef_smoker * x_smoker
        + p.coef_claim_present * x_claim
        + p.coef_claim_severity * x_severity
        + p.age_curvature * x_age**2
        + p.interaction * x_smoker * x_severity
    )
    return np.logaddexp(0.0, eta)


def _check_predictions(
    r: Runner, op: Op, path: Path, ids: list[str], truth: np.ndarray
) -> float | None:
    """Row count, ids in input order, finite predictions; returns the
    relative RMSE against the noise-free truth."""
    if op.error is not None:
        return None
    cols = _read_columns(path, "id", "predicted_expenditure")
    op.rows = len(cols["id"])
    if not r.check(op, op.rows == len(ids), f"{op.rows} predictions for {len(ids)} rows"):
        return None
    if not r.check(op, cols["id"] == ids, "prediction ids differ from input ids"):
        return None
    pred = np.array(cols["predicted_expenditure"], dtype=float)
    del cols
    if not r.check(op, bool(np.all(np.isfinite(pred))), "non-finite prediction"):
        return None
    err = math.sqrt(float(np.mean((pred - truth) ** 2))) / float(np.mean(truth))
    # A relative error of 1 means the predictions carry no information
    # about the price at all; every family sits far below that.
    r.check(op, err < 1.0, f"relative RMSE {err:.3f} against the truth")
    return err


# -- workloads ----------------------------------------------------------------


class Workload:
    name = ""
    # Iterations that together cover the workload's inputs once; a run
    # ends only after a whole number of cycles.
    cycle = 1

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        # family -> portfolio -> relative RMSE against the noise-free truth
        self.price_err: dict[str, dict[str, float]] = {}
        # inputs left out because the GAM fit does not converge on them
        self.skipped: list[int] = []

    def setup(self, r: Runner, k: int) -> None:
        """Per-workload set-up; its operations count toward ``setup_s``."""

    def iteration(self, r: Runner, k: int) -> None:
        raise NotImplementedError

    def rows_priced(self, op: Op) -> int:
        return op.rows if op.label.startswith("predict.") else 0

    def epochs(self, op: Op) -> int:
        return 0


class Pipeline(Workload):
    """The README command sequence at n = 200, one pass per iteration.

    Iterations cycle through five portfolios, each generated and split with
    its own seed.  How long the GAM backfits and the early-stopped ANN fit
    take depends on the data: over single portfolios the pass time varied
    by about 14% (quartile distance over median), so a run covering one
    portfolio would measure the data more than the code.  The smoke run
    covers one portfolio only.

    Set-up picks the portfolios: from seed ``5 s`` upwards, the first ones
    on which ``fit --family gam`` converges.  On the others the fit exits 4
    (the known GAM defect), and the rest of the pass would fail with it;
    they are left out of the cycle and reported in ``skipped``.
    """

    name = "pipeline"
    n = 200
    # Candidate portfolios tried before set-up gives up; about one in
    # twelve does not converge.
    max_candidates = 20

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.cycle = 1 if smoke else 5
        self.portfolios: list[int] = []

    def setup(self, r: Runner, k: int) -> None:
        import pricelab.cli

        d = r.fresh_dir(f"setup{k}")
        os.chdir(d)
        chosen: list[int] = []
        skipped: list[int] = []
        try:
            for p in range(5 * self.seed, 5 * self.seed + self.max_candidates):
                if len(chosen) == self.cycle:
                    break
                s = str(p)
                csv_path = f"portfolio{s}.csv"
                gen = r.cli("gen", ["gen", "--n", str(self.n), "--seed", s, "-o", csv_path])
                if gen.error is not None:
                    continue
                argv = ["fit", "--family", "gam", "--in", csv_path, "--seed", s,
                        "-o", f"gam{s}.model"]
                probe = r.call("probe.gam", lambda: pricelab.cli.main(argv))
                if probe.error is None and probe.value == 4 and "backfitting" in probe.stderr:
                    skipped.append(p)
                elif probe.error is None and probe.value != 0:
                    probe.error = f"exit {probe.value}: {probe.stderr}"
                elif probe.error is None:
                    chosen.append(p)
        finally:
            os.chdir(r.work)
            shutil.rmtree(d, ignore_errors=True)
        if len(chosen) < self.cycle:
            raise RuntimeError(f"only {len(chosen)} of {self.max_candidates} portfolios "
                               f"from {5 * self.seed} converge")
        if k:
            r.check(probe, (chosen, skipped) == (self.portfolios, self.skipped),
                    "repeated set-up chose other portfolios")
        self.portfolios, self.skipped = chosen, skipped

    def iteration(self, r: Runner, k: int) -> None:
        seed = self.portfolios[k % self.cycle]
        d = r.fresh_dir(f"iter{k}")
        os.chdir(d)
        try:
            self._pass(r, d, str(seed))
        finally:
            os.chdir(r.work)
            shutil.rmtree(d, ignore_errors=True)

    def _pass(self, r: Runner, d: Path, s: str) -> None:
        gen = r.cli("gen", ["gen", "--n", str(self.n), "--seed", s, "-o", "portfolio.csv"])
        if gen.error is None:
            cols = _read_columns(d / "portfolio.csv", *_ATTRIBUTES)
            ids = cols["id"]
            r.check(gen, len(ids) == self.n, f"gen wrote {len(ids)} rows")
            truth = _truth(cols)
        for fam in FAMILIES:
            fit = r.cli(
                f"fit.{fam}",
                ["fit", "--family", fam, "--in", "portfolio.csv", "--seed", s,
                 "-o", f"{fam}.model"],
            )
            r.check(fit, (d / f"{fam}.model.test-index").is_file(), "no test index")
        for fam in FAMILIES:
            pred = r.cli(
                f"predict.{fam}",
                ["predict", "--model", f"{fam}.model", "--in", "portfolio.csv",
                 "-o", f"{fam}.pred.csv"],
            )
            if gen.error is None:
                err = _check_predictions(r, pred, d / f"{fam}.pred.csv", ids, truth)
                if err is not None:
                    self.price_err.setdefault(fam, {})[s] = err
        argv = ["compare"]
        for fam in FAMILIES:
            argv += ["--model", f"{fam}.model"]
        cmp = r.cli("compare", argv + ["--in", "portfolio.csv", "--seed", s, "-o", "report"])
        if cmp.error is None:
            self._check_report(r, cmp, d / "report.csv")
        before = [(d / f).read_bytes() if (d / f).is_file() else None
                  for f in ("gam.model", "gam.model.test-index")]
        rep = r.cli("replay", ["replay", "gam.model.manifest"])
        after = [(d / f).read_bytes() if (d / f).is_file() else None
                 for f in ("gam.model", "gam.model.test-index")]
        r.check(rep, None not in before and before == after, "replay is not byte-identical")
        for name in ("portfolio.csv", "report.md", "report.csv",
                     *(f"{fam}.model" for fam in FAMILIES),
                     *(f"{fam}.pred.csv" for fam in FAMILIES)):
            r.digest(f"seed{s}/{name}", d / name)

    def _check_report(self, r: Runner, op: Op, path: Path) -> None:
        cols = _read_columns(path, "model", "ratio_min", "ratio_max")
        models = cols["model"]
        if not r.check(op, sorted(models) == sorted(FAMILIES), f"report models {sorted(models)}"):
            return
        for fam, lo, hi in zip(models, cols["ratio_min"], cols["ratio_max"]):
            lo, hi = float(lo), float(hi)
            r.check(op, math.isfinite(lo) and math.isfinite(hi) and lo <= hi,
                    f"{fam} band ({lo}, {hi})")


class Book(Workload):
    """Price a large portfolio with artifacts fitted during set-up."""

    name = "book"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.train_n = 2000
        self.book_n = 2000 if smoke else 20000
        self.models: Path | None = None

    def setup(self, r: Runner, k: int) -> None:
        s = str(self.seed)
        d = r.fresh_dir(f"setup{k}")
        gen = r.cli("gen", ["gen", "--n", str(self.train_n), "--seed", s,
                            "-o", str(d / "train.csv")])
        r.check(gen, (d / "train.csv").is_file(), "no training CSV")
        for fam in FAMILIES:
            fit = r.cli(
                f"fit.{fam}",
                ["fit", "--family", fam, "--in", str(d / "train.csv"), "--seed", s,
                 "-o", str(d / f"{fam}.model")],
            )
            if fit.error is None and self.models is not None:
                same = (d / f"{fam}.model").read_bytes() == (
                    self.models / f"{fam}.model").read_bytes()
                r.check(fit, same, f"repeated set-up gave a different {fam} artifact")
            r.digest(f"{fam}.model", d / f"{fam}.model")
        if self.models is not None:
            shutil.rmtree(self.models, ignore_errors=True)
        self.models = d

    def iteration(self, r: Runner, k: int) -> None:
        d = r.fresh_dir(f"iter{k}")
        try:
            book = d / "book.csv"
            gen = r.cli("gen", ["gen", "--n", str(self.book_n), "--seed", str(self.seed + 1),
                                "-o", str(book)])
            if gen.error is None:
                cols = _read_columns(book, *_ATTRIBUTES)
                ids = cols["id"]
                r.check(gen, len(ids) == self.book_n, f"gen wrote {len(ids)} rows")
                truth = _truth(cols)
                del cols
                r.digest("book.csv", book)
            for fam in FAMILIES:
                out = d / f"{fam}.pred.csv"
                pred = r.cli(
                    f"predict.{fam}",
                    ["predict", "--model", str(self.models / f"{fam}.model"),
                     "--in", str(book), "-o", str(out)],
                )
                if gen.error is None:
                    err = _check_predictions(r, pred, out, ids, truth)
                    if err is not None:
                        self.price_err.setdefault(fam, {})["book"] = err
                r.digest(f"{fam}.pred.csv", out)
        finally:
            shutil.rmtree(d, ignore_errors=True)


class Curve(Workload):
    """``evaluation.learning_curve`` with the acceptance-test settings, 2 seeds."""

    name = "curve"

    def setup(self, r: Runner, k: int) -> None:
        from pricelab.ann import TrainingConfig
        from pricelab.dataset import GeneratorParams
        from pricelab.evaluation import AnnFamily

        self.family = AnnFamily(training=TrainingConfig(learning_rate=0.4))
        self.params = GeneratorParams(noise_scale=1500.0, noise_outlier_rate=0.0)
        self.sizes = (100, 200) if self.smoke else (100, 200, 400, 800)
        self.seeds = (self.seed, self.seed + 1)
        self.steps = tuple(range(100, (2000 if self.smoke else 16000) + 1, 100))

    def iteration(self, r: Runner, k: int) -> None:
        import pricelab.evaluation as evaluation

        op = r.call(
            "learning_curve", lambda: evaluation.learning_curve(
                self.family, self.params, sizes=self.sizes, seeds=self.seeds, steps=self.steps
            )
        )
        if op.error is not None:
            return
        cells = tuple(op.value.cells)
        if not r.check(op, len(cells) == len(self.sizes) * len(self.seeds),
                       f"{len(cells)} cells"):
            return
        for n, seed, threshold in cells:
            r.check(op, threshold is None or 0.0 < threshold < 1.0,
                    f"threshold {threshold} at n={n} seed={seed}")
        text = "".join(f"{n},{seed},{'' if t is None else repr(t)}\n" for n, seed, t in cells)
        r.digests.setdefault("learning_curve", set()).add(
            hashlib.sha256(text.encode()).hexdigest())

    def epochs(self, op: Op) -> int:
        if op.label != "learning_curve" or op.error is not None:
            return 0
        return len(self.sizes) * len(self.seeds) * self.steps[-1]


WORKLOADS = {w.name: w for w in (Pipeline, Book, Curve)}
