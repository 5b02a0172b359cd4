"""End-to-end command pipeline: gen, fit, predict, compare, manifests."""

import contextlib
import csv
import io
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFUSED_HEADERS, package_env
from pricelab.ann import MAX_EPOCHS, MAX_HIDDEN, AnnModel, NetworkTopology, TrainingConfig
from pricelab.artifacts import load_model
from pricelab.cli import build_parser, main, replay_manifest
from pricelab.dataset import (
    CSV_COLUMNS, MAX_ROWS, GeneratorParams, encode_dataset, load_csv, split_half,
)
from pricelab.errors import ValidationError
from pricelab.evaluation import (
    _PRICE_ROWS, FAMILIES, GlmFamily, compare, render_markdown, report_csv,
)
from pricelab.gam import MAX_KNOTS, GamModel, SmoothConfig
from pricelab.glm import GlmModel, predict_glm


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def data_csv(tmp_path):
    path = tmp_path / "customers.csv"
    assert run("gen", "--n", 100, "--seed", 3, "-o", path) == 0
    return path


def test_gen_deterministic_and_manifested(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run("gen", "--n", 50, "--seed", 7, "-o", a) == 0
    assert run("gen", "--n", 50, "--seed", 7, "-o", b) == 0
    assert a.read_bytes() == b.read_bytes()
    assert load_csv(a).n == 50
    manifest = (tmp_path / "a.csv.manifest").read_text()
    assert "command = gen" in manifest
    assert "argv = " in manifest
    different = tmp_path / "c.csv"
    assert run("gen", "--n", 50, "--seed", 8, "-o", different) == 0
    assert a.read_bytes() != different.read_bytes()


def test_gen_rejects_invalid_count(tmp_path):
    """A row count below 1, and a negative ``--seed`` on any command, are
    usage errors."""
    for argv in (
        ["gen", "--n", 0, "-o", tmp_path / "x.csv"],
        ["gen", "--seed", -1, "-o", tmp_path / "x.csv"],
        ["fit", "--family", "glm", "--in", tmp_path / "x.csv", "--seed", -1, "-o", tmp_path / "m"],
        ["compare", "--model", tmp_path / "a", "--model", tmp_path / "b",
         "--in", tmp_path / "x.csv", "--seed", -1, "-o", tmp_path / "r"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2, argv


def test_fit_writes_artifact_index_and_manifest(tmp_path, data_csv):
    out = tmp_path / "glm.model"
    assert run("fit", "--family", "glm", "--in", data_csv, "--seed", 0, "-o", out) == 0
    model = load_model(out)
    assert isinstance(model, GlmModel)
    assert model.coef.shape == (6,)  # six features + stored intercept
    index = (tmp_path / "glm.model.test-index").read_text().split()
    assert len(index) == 50  # test half of 100
    assert len(set(index)) == 50
    assert (tmp_path / "glm.model.manifest").exists()


def test_fit_too_few_rows_exits_3(tmp_path):
    small = tmp_path / "small.csv"
    assert run("gen", "--n", 10, "--seed", 0, "-o", small) == 0
    # 10 rows -> train half of 5, below the additive model's minimum
    assert run("fit", "--family", "gam", "--in", small, "-o", tmp_path / "g.model") == 3


def test_fit_bad_header_exits_3(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,sex,age,income,smoke,previous_claim,expenditure\n")
    assert run("fit", "--family", "glm", "--in", bad, "-o", tmp_path / "m") == 3


@pytest.mark.parametrize("command", ["fit", "predict"])
@pytest.mark.parametrize("header", REFUSED_HEADERS.values(), ids=list(REFUSED_HEADERS))
def test_a_header_outside_the_grammar_exits_3_with_one_error_line(
    tmp_path, fitted_artifacts, capsys, command, header
):
    """A padded, quoted or tab-ended header name, or a quoted one holding
    a line break: exit 3 with the one bad-header error line, and no output."""
    rows = (fitted_artifacts / "data.csv").read_text().splitlines()[1:]
    book = tmp_path / "book.csv"
    book.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "out"
    argv = {"fit": ["fit", "--family", "glm", "--in", book, "-o", out],
            "predict": ["predict", "--model", fitted_artifacts / "glm.model", "--in", book,
                        "-o", out]}[command]
    capsys.readouterr()
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {book}: bad header; ") and err.count("\n") == 1, err
    assert not out.exists()


def test_fit_divergent_config_exits_4(tmp_path, data_csv):
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("learning_rate = 1000000\n")
    code = run("fit", "--family", "ann", "--in", data_csv,
               "--config", cfg, "-o", tmp_path / "ann.model")
    assert code == 4


def test_fit_honors_model_config(tmp_path, data_csv):
    cfg = tmp_path / "models.cfg"
    cfg.write_text(
        "knots = 4\npenalty = 0.01\nforce_linear = yes\nhidden = 4,3\n"
        "learning_rate = 0.1\nmax_epochs = 50\n"
    )
    gam_path = tmp_path / "gam.model"
    assert run("fit", "--family", "gam", "--in", data_csv,
               "--config", cfg, "-o", gam_path) == 0
    gam = load_model(gam_path)
    assert isinstance(gam, GamModel)
    assert gam.smooth_config.knots == 4
    assert gam.smooth_config.penalty == 0.01
    assert gam.smooth_config.force_linear
    assert all(s.kind == "linear" for s in gam.smooths)

    ann_path = tmp_path / "ann.model"
    assert run("fit", "--family", "ann", "--in", data_csv,
               "--config", cfg, "-o", ann_path) == 0
    ann = load_model(ann_path)
    assert isinstance(ann, AnnModel)
    assert ann.topology.hidden == (4, 3)
    assert ann.stopped_epoch <= 50


def test_predict_matches_library(tmp_path, data_csv):
    model_path = tmp_path / "glm.model"
    assert run("fit", "--family", "glm", "--in", data_csv, "-o", model_path) == 0
    out = tmp_path / "preds.csv"
    assert run("predict", "--model", model_path, "--in", data_csv, "-o", out) == 0

    lines = out.read_text().strip().splitlines()
    assert lines[0] == "id,predicted_expenditure,ratio"
    data = load_csv(data_csv)
    model = load_model(model_path)
    predictions = predict_glm(model, encode_dataset(data)[0])
    assert len(lines) == data.n + 1
    rows = zip(lines[1:], data.ids.tolist(), data.expenditure.tolist(), predictions)
    for line, record_id, actual, expected in rows:
        cells = line.split(",")
        assert int(cells[0]) == record_id
        assert float(cells[1]) == expected  # exact repr round-trip
        if actual == 0:
            assert cells[2] == ""
        else:
            assert float(cells[2]) == expected / actual


def test_predict_without_actuals_drops_ratio_column(tmp_path, data_csv):
    headless = tmp_path / "future.csv"
    rows = data_csv.read_text().strip().splitlines()
    trimmed = [",".join(CSV_COLUMNS[:-1])]
    trimmed += [",".join(r.split(",")[:-1]) for r in rows[1:]]
    headless.write_text("\n".join(trimmed) + "\n")

    model_path = tmp_path / "glm.model"
    assert run("fit", "--family", "glm", "--in", data_csv, "-o", model_path) == 0
    out = tmp_path / "preds.csv"
    assert run("predict", "--model", model_path, "--in", headless, "-o", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "id,predicted_expenditure"
    assert all(line.count(",") == 1 for line in lines[1:])


def test_compare_end_to_end(tmp_path, data_csv):
    glm_path = tmp_path / "glm.model"
    gam_path = tmp_path / "gam.model"
    assert run("fit", "--family", "glm", "--in", data_csv, "--seed", 1, "-o", glm_path) == 0
    assert run("fit", "--family", "gam", "--in", data_csv, "--seed", 1, "-o", gam_path) == 0
    prefix = tmp_path / "report"
    assert run("compare", "--model", glm_path, "--model", gam_path,
               "--in", data_csv, "--seed", 1, "-o", prefix) == 0
    md = (tmp_path / "report.md").read_text()
    assert "## Prediction accuracy" in md
    assert "## Overfitting" in md
    assert "| glm |" in md and "| gam |" in md
    csv = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert csv[0].startswith("model,ratio_min")
    assert len(csv) == 3
    assert (tmp_path / "report.md.manifest").exists()


def test_library_compare_of_split_halves_writes_the_cli_report(tmp_path):
    """``compare`` on the ``split_half`` halves of the file, with the CLI's
    artifacts loaded back, writes the bytes of the CLI's report.  On this
    portfolio the GAM scans find other results in the halves' row order than
    in the file's, so the bytes show that both scan in one order."""
    data_csv, config = tmp_path / "p.csv", tmp_path / "gen.cfg"
    config.write_text("noise_scale = 600\ninteraction = 8000\n")
    assert run("gen", "--n", 200, "--seed", 3, "--config", config, "-o", data_csv) == 0
    paths = [tmp_path / f"{family}.model" for family in ("glm", "gam", "ann")]
    for path in paths:
        assert run("fit", "--family", path.stem, "--in", data_csv, "--seed", 3, "-o", path) == 0
    assert run("compare", *[a for path in paths for a in ("--model", path)],
               "--in", data_csv, "--seed", 3, "-o", tmp_path / "report") == 0

    train_half, test_half = split_half(load_csv(data_csv), seed=3)
    report = compare([load_model(p) for p in paths], test_half, train=train_half, seed=3)
    assert [r.name for r in report.results] == ["glm", "gam", "ann"]
    assert (tmp_path / "report.csv").read_text() == report_csv(report)
    assert (tmp_path / "report.md").read_text() == render_markdown(report)


# Bytes that are not UTF-8 text, as at the start of an executable.
NOT_UTF8 = b"\x7fELF\x02\x01\x01\x00" + bytes(range(256))


# Keys of settings that are fixed now: the input encoding's, the band's and the
# network's early-stopping protocol's.
RETIRED_KEYS = (
    "age_max", "income_max", "trim_fraction", "floor",
    "patience", "validation_fraction", "train_seed",
)


@pytest.mark.parametrize("command, config", [
    ("fit", "knots = abc"),
    ("fit", "link = cubic"),
    ("fit", "hidden = 4,x"),
    ("fit", "max_epochs = 1.5"),
    ("fit", "force_linear = maybe"),
    ("compare", "# garbled test index"),
    ("fit", "# missing config file"),
    ("predict", "# missing input file"),
    ("predict", "# missing model file"),
    ("fit", "# non-UTF-8 input file"),
    ("fit", "# non-UTF-8 config file"),
    ("predict", "# non-UTF-8 model file"),
    ("compare", "# non-UTF-8 test index"),
    ("gen", "income_max = 1e30"),
    ("fit", "income_max = 1e300"),
    ("fit gam", "income_max = 1e300"),
    ("fit ann", "income_max = 1e300"),
    ("fit", "age_max = 90"),
    ("gen", "trim_fraction = 0.05"),
    ("fit", "floor = 500"),
    ("gen", "n = 10000000000"),
    ("fit", "hidden = 100000000"),
    ("fit", "knots = 100000000"),
    ("fit", "max_epochs = 100000000"),
    ("fit", "train_seed = 0"),
    ("fit", "patience = 100"),
    ("fit", "validation_fraction = 0.2"),
    ("gen", "seed = -1"),
])
def test_bad_input_exits_3_with_one_error_line(tmp_path, data_csv, capsys, command, config):
    command, _, family = command.partition(" ")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + "\n")
    damaged = tmp_path / ("missing" if "missing" in config else "binary")
    if "non-UTF-8" in config:
        damaged.write_bytes(NOT_UTF8)

    def pick(role, good):
        """The damaged file for the input the case names, else ``good``."""
        return damaged if f"{role} file" in config else good

    if command == "gen":
        argv = ["gen", "--n", 20, "--config", cfg, "-o", tmp_path / "g.csv"]
    elif command == "fit":
        argv = ["fit", "--family", family or "glm", "--in", pick("input", data_csv),
                "--config", pick("config", cfg), "-o", tmp_path / "m.model"]
    elif command == "predict":
        model = tmp_path / "m.model"
        assert run("fit", "--family", "glm", "--in", data_csv, "-o", model) == 0
        argv = ["predict", "--model", pick("model", model),
                "--in", pick("input", data_csv), "-o", tmp_path / "p.csv"]
    else:
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        for path in (a, b):
            assert run("fit", "--family", "glm", "--in", data_csv, "--seed", 1, "-o", path) == 0
        index = tmp_path / "a.model.test-index"
        if "garbled" in config:
            ids = index.read_text().split()
            index.write_text("\n".join([ids[0] + "a", *ids[1:]]) + "\n")
        elif "non-UTF-8" in config:
            index.write_bytes(NOT_UTF8)
            damaged = index
        argv = ["compare", "--model", a, "--model", b, "--in", data_csv, "-o", tmp_path / "r"]
    capsys.readouterr()
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if "non-UTF-8" in config:
        assert f"{damaged}: not a UTF-8 text file" in err
    if config.split()[0] in RETIRED_KEYS:
        assert err.endswith(f": unknown key(s): {config.split()[0]}\n")


def test_compare_takes_no_config(tmp_path, capsys):
    """The comparison protocol is fixed, so ``compare --config`` is a usage
    error, before any file is read."""
    (tmp_path / "band.cfg").write_text("floor = 500\n")
    with pytest.raises(SystemExit) as exc:
        run("compare", "--model", tmp_path / "a", "--model", tmp_path / "b",
            "--in", tmp_path / "x.csv", "--config", tmp_path / "band.cfg", "-o", tmp_path / "r")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and err.endswith("unrecognized arguments: --config "
                                                      f"{tmp_path / 'band.cfg'}\n"), err
    # so a compare manifest recorded with --config by an older version no longer replays
    manifest = tmp_path / "r.md.manifest"
    manifest.write_text(f"command = compare\nargv = compare --model a --model b --in x.csv "
                        f"--config band.cfg -o r\ncwd = {tmp_path}\n")
    with pytest.raises(SystemExit) as exc:
        run("replay", manifest)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["fit", "predict"])
@pytest.mark.parametrize("where, line", [("header", 1), ("body", 3)])
def test_an_over_long_cell_exits_3_with_one_error_line(tmp_path, data_csv, capsys,
                                                       command, where, line):
    """A line past the CSV field size limit, in the header or a row."""
    long = "x" * 200_000
    header, *rows = data_csv.read_text().splitlines()[:3]
    if where == "header":
        header = header.replace("gender", "gender" + long)
    else:
        rows[1] = rows[1].replace("male", long, 1)
    damaged = tmp_path / "long.csv"
    damaged.write_text("\n".join([header, *rows]) + "\n")
    if command == "fit":
        argv = ["fit", "--family", "glm", "--in", damaged, "-o", tmp_path / "m.model"]
    else:
        model = tmp_path / "m.model"
        assert run("fit", "--family", "glm", "--in", data_csv, "-o", model) == 0
        argv = ["predict", "--model", model, "--in", damaged, "-o", tmp_path / "p.csv"]
    capsys.readouterr()
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {damaged}: line {line}: field larger") and err.count("\n") == 1


def test_size_bounds_refuse_before_allocating(tmp_path, monkeypatch, capsys):
    """Row counts, hidden sizes, knot counts and epoch counts past their
    bounds are refused before any array is made; on the command line a bad
    ``--n`` is a usage error."""
    def never(*args, **kwargs):
        raise AssertionError("generated data past the row bound")

    monkeypatch.setattr("pricelab.cli.generate_synthetic", never)
    with pytest.raises(SystemExit) as exc:
        run("gen", "--n", 10_000_000_000, "-o", tmp_path / "x.csv")
    assert exc.value.code == 2
    assert f"error: n must lie in [1, {MAX_ROWS}]" in capsys.readouterr().err
    assert GeneratorParams(n=MAX_ROWS).n == MAX_ROWS
    assert NetworkTopology(hidden=(MAX_HIDDEN, 1)).hidden == (MAX_HIDDEN, 1)
    with pytest.raises(ValidationError, match="hidden"):
        NetworkTopology(hidden=(8, MAX_HIDDEN + 1))
    assert SmoothConfig(knots=MAX_KNOTS).knots == MAX_KNOTS
    with pytest.raises(ValidationError, match="knots"):
        SmoothConfig(knots=MAX_KNOTS + 1)
    assert TrainingConfig(max_epochs=MAX_EPOCHS).max_epochs == MAX_EPOCHS
    with pytest.raises(ValidationError, match="max_epochs"):
        TrainingConfig(max_epochs=MAX_EPOCHS + 1)


@pytest.fixture(scope="module")
def fitted_artifacts(tmp_path_factory):
    """One fitted artifact per family, on a 100-row portfolio."""
    d = tmp_path_factory.mktemp("artifacts")
    assert run("gen", "--n", 100, "--seed", 3, "-o", d / "data.csv") == 0
    (d / "ann.cfg").write_text("max_epochs = 50\n")
    for family in ("glm", "gam", "ann"):
        config = ["--config", d / "ann.cfg"] if family == "ann" else []
        assert run("fit", "--family", family, "--in", d / "data.csv", *config,
                   "-o", d / f"{family}.model") == 0
    return d


@pytest.mark.parametrize("family, key, value", [
    ("glm", "link", "cubic"),
    ("glm", "rss", None),
    ("gam", "knot_values", "1.0 x"),
    ("gam", "rss", None),
    ("ann", "hidden", "8,x"),
    ("ann", "stopped_epoch", None),
    ("ann", "row_0", "0.1 0.2 0.3 0.4 0.5"),  # the first layer takes six inputs
    ("ann", "bias", "0 0 0 0 0 0 0 0 0"),  # and has eight hidden units
    ("gam", "intercept", "1e999"),
    ("glm", "age_max", "90.0"),  # another encoding, as older versions could fit
    ("ann", "scaler_hi", "inf"),
    ("ann", "bias", "nan"),
    ("ann", "scaler_lo", "1e12"),  # above scaler_hi
    # the fixture's first knots, in reverse order
    ("gam", "knot_positions", "0.9838709677419355 0.7580645161290323 0.6193548387096776 "
                              "0.5 0.20967741935483872 0.016129032258064516"),
    ("gam", "knot_values", "0 0 0 0 0"),  # five values for the six knots
])
def test_damaged_artifact_exits_3_with_one_error_line(
    tmp_path, fitted_artifacts, capsys, family, key, value
):
    """A garbled value (or a removed line, ``value`` None) in a fitted
    artifact makes predict exit 3 with one error line naming the key."""
    lines = (fitted_artifacts / f"{family}.model").read_text().splitlines()
    at = next(k for k, line in enumerate(lines) if line.startswith(f"{key} = "))
    if value is None:
        del lines[at]
    else:
        lines[at] = f"{key} = {value}"
    damaged = tmp_path / "damaged.model"
    damaged.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("predict", "--model", damaged, "--in", fitted_artifacts / "data.csv",
               "-o", tmp_path / "p.csv") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert repr(key) in err
    if value in ("1e999", "inf", "nan"):
        assert f"key {key!r}: not a finite number" in err, err


def test_a_gam_artifact_with_an_interaction_section_is_refused(
    tmp_path, fitted_artifacts, capsys
):
    """Older versions saved a GAM extended by an interaction term with an
    ``[interaction]`` section.  No model prices such a term, so the artifact
    is refused, naming the section, rather than priced without it."""
    model = tmp_path / "gam.model"
    model.write_text((fitted_artifacts / "gam.model").read_text()
                     + "[interaction]\npair = smoker claim_severity\n"
                       "gamma = 0.00010513959795347634\n")
    with pytest.raises(ValidationError, match=re.escape(f"{model}: [interaction]: ")):
        load_model(model)
    capsys.readouterr()
    out = tmp_path / "p.csv"
    assert run("predict", "--model", model, "--in", fitted_artifacts / "data.csv",
               "-o", out) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: [interaction]: ") and err.count("\n") == 1, err
    assert not out.exists() and not Path(f"{out}.manifest").exists()


def test_compare_refuses_a_gam_artifact_with_an_interaction_section(
    tmp_path, fitted_artifacts, capsys
):
    """``compare`` loads its models the same way: the GAM with an
    ``[interaction]`` section stops it before any report is written."""
    model = tmp_path / "gam.model"
    model.write_text((fitted_artifacts / "gam.model").read_text()
                     + "[interaction]\npair = smoker claim_severity\n"
                       "gamma = 0.00010513959795347634\n")
    Path(f"{model}.test-index").write_bytes(
        (fitted_artifacts / "gam.model.test-index").read_bytes())
    capsys.readouterr()
    report = tmp_path / "report"
    assert run("compare", "--model", fitted_artifacts / "glm.model", "--model", model,
               "--in", fitted_artifacts / "data.csv", "-o", report) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: [interaction]: ") and err.count("\n") == 1, err
    assert not report.exists() and not Path(f"{report}.manifest").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family, section, key, value", [
    ("ann", "[layer 1]", "bias", "1e308"),  # every price overflows to inf
    ("gam", "[smooth age]", "knot_positions", "-1e300"),  # NaN on part of the rows
])
def test_predict_refuses_prices_that_are_not_finite(
    tmp_path, fitted_artifacts, capsys, family, section, key, value
):
    """A finite but extreme first number of ``key`` in ``section`` loads,
    yet gives prices that are not finite: predict exits 4 with one error
    line naming the model file, and writes no predictions."""
    lines = (fitted_artifacts / f"{family}.model").read_text().splitlines()
    at = next(k for k in range(lines.index(section), len(lines))
              if lines[k].startswith(f"{key} = "))
    numbers = lines[at].split(" = ")[1].split()
    lines[at] = f"{key} = " + " ".join([value] + numbers[1:])
    damaged = tmp_path / "extreme.model"
    damaged.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("predict", "--model", damaged, "--in", fitted_artifacts / "data.csv",
               "-o", tmp_path / "p.csv") == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {damaged}: ") and err.count("\n") == 1, err
    assert "not finite" in err and not (tmp_path / "p.csv").exists()


@pytest.fixture(scope="module")
def book_rows(tmp_path_factory):
    """(header, rows) of a generated book two price blocks and 3 rows long."""
    path = tmp_path_factory.mktemp("book") / "book.csv"
    assert run("gen", "--n", 2 * _PRICE_ROWS + 3, "--seed", 2, "-o", path) == 0
    header, *rows = path.read_text().splitlines()
    # softplus underflows to an expenditure of exactly 0 on 102 of them
    assert sum(float(row.rsplit(",", 1)[1]) == 0 for row in rows) == 102
    return header, rows


def whole_file_predictions(model_path, input_path):
    """The bytes predict wrote when it priced a file with one call and
    joined every formatted line into one string."""
    model = load_model(model_path)
    data = load_csv(input_path)
    X, actual = encode_dataset(data)
    predictions = FAMILIES[model.family].predict(model, X).tolist()
    ids = data.ids.tolist()
    if actual is None:
        lines = ["id,predicted_expenditure"]
        lines += [f"{i},{p!r}" for i, p in zip(ids, predictions)]
    else:
        lines = ["id,predicted_expenditure,ratio"]
        lines += [
            f"{i},{p!r}," + (repr(p / a) if a and math.isfinite(p / a) else "")
            for i, p, a in zip(ids, predictions, actual.tolist())
        ]
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("actuals", [True, False], ids=["actuals", "no-actuals"])
@pytest.mark.parametrize("n", [1, _PRICE_ROWS - 1, _PRICE_ROWS, _PRICE_ROWS + 1,
                               2 * _PRICE_ROWS + 3])
def test_predict_writes_the_bytes_of_whole_file_formatting(
    tmp_path, fitted_artifacts, book_rows, n, actuals
):
    """Each family's lines, formatted and written a block at a time, are the
    bytes of the whole file formatted at once.  A ratio cell is empty
    exactly where ``p / a`` is not finite: on the generated book's own
    zeros, where softplus underflows, and on the last row's 0.  So is it
    for an expenditure of -0.0 and one of 5e-324 (a ratio of inf), on and
    across the edge of the first block.  With the expenditure column cut
    off, the lines are the first two columns of the book's own."""
    header, rows = book_rows
    rows = rows[:n - 1] + [rows[n - 1].rsplit(",", 1)[0] + ",0.0"]
    odd = {k: spend for k, spend in [(_PRICE_ROWS - 2, "-0.0"), (_PRICE_ROWS - 1, "5e-324"),
                                     (_PRICE_ROWS, "-0.0"), (_PRICE_ROWS + 1, "5e-324")]
           if k < n - 1}
    for k, spend in odd.items():
        rows[k] = rows[k].rsplit(",", 1)[0] + "," + spend
    blanks = [float(row.rsplit(",", 1)[1]) in (0.0, 5e-324) for row in rows]
    book = tmp_path / "book.csv"
    book.write_text("\n".join([header, *rows]) + "\n")
    priced = book
    if not actuals:  # the expenditure column cut off
        priced = tmp_path / "future.csv"
        priced.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in [header, *rows]))
    out = tmp_path / "p.csv"
    for family in FAMILIES:
        model = fitted_artifacts / f"{family}.model"
        assert run("predict", "--model", model, "--in", priced, "-o", out) == 0
        written = out.read_bytes()
        assert written == whole_file_predictions(model, priced), family
        assert written.count(b"\n") == n + 1
        assert written.endswith(b",\n") == actuals
        lines = written.decode().split("\n")[1:-1]
        if actuals:
            assert [line.endswith(",") for line in lines] == blanks
            assert all(lines[k].endswith(",") for k in odd)
        else:  # the first two columns of the book's own predictions
            book_lines = whole_file_predictions(model, book).decode().split("\n")[1:-1]
            assert lines == [line.rsplit(",", 1)[0] for line in book_lines]


def test_a_ratio_that_is_not_finite_is_blank(tmp_path, fitted_artifacts):
    """An actual of 0 and one of 5e-324, whose ratio overflows to inf,
    both get a blank ratio cell from every family; every other ratio cell
    is the finite ``p / a``."""
    header, *rows = (fitted_artifacts / "data.csv").read_text().splitlines()
    for k, spend in ((2, "0"), (5, "5e-324")):
        rows[k] = rows[k].rsplit(",", 1)[0] + "," + spend
    book = tmp_path / "book.csv"
    book.write_text("\n".join([header, *rows]) + "\n")
    actual = [float(row.rsplit(",", 1)[1]) for row in rows]
    out = tmp_path / "p.csv"
    for family in FAMILIES:
        assert run("predict", "--model", fitted_artifacts / f"{family}.model", "--in", book,
                   "-o", out) == 0
        cells = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [k for k, (_, _, ratio) in enumerate(cells) if ratio == ""] == [2, 5], family
        assert all(float(ratio) == float(price) / a
                   for (_, price, ratio), a in zip(cells, actual) if ratio), family


@pytest.mark.parametrize("cell", ["gender", "id"])
def test_a_bad_cell_deep_in_a_book_exits_3_with_one_error_line(
    tmp_path, fitted_artifacts, book_rows, capsys, cell
):
    """One bad cell on line 8001 of the book, past seven of the C reader's
    blocks of lines: a gender that is not one, or an id padded with zeros
    past the CSV field size limit (a number ``int`` alone would read).
    predict exits 3 with the one error line naming that line, and writes
    no predictions."""
    header, rows = book_rows
    cells = rows[7999].split(",")
    if cell == "gender":
        cells[1] = "robot"
        expected = "error: row 8001: invalid gender 'robot' (expected one of: female, male)"
    else:
        cells[0] = "0" * csv.field_size_limit() + cells[0]
        expected = (f"error: {tmp_path / 'book.csv'}: line 8001: "
                    f"field larger than field limit ({csv.field_size_limit()})")
    rows = [*rows[:7999], ",".join(cells), *rows[8000:]]
    book = tmp_path / "book.csv"
    book.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "p.csv"
    capsys.readouterr()
    assert run("predict", "--model", fitted_artifacts / "glm.model", "--in", book,
               "-o", out) == 3
    assert capsys.readouterr().err == expected + "\n"
    assert not out.exists()


# Spellings outside the CSV grammar, as (column, or None for a line put
# before the row, text, error after "row 7: "); all but ``Male`` and
# ``NONE`` loaded before one parser read the grammar.
OUTSIDE_THE_GRAMMAR = [
    ("income", "1_000", "a number outside the CSV grammar"),
    ("age", "\uff130", "a number outside the CSV grammar"),
    ("id", "9223372036854775808", "a number outside the CSV grammar"),
    ("smoke", "Yes", "invalid smoke 'Yes'"),
    ("gender", " male ", "invalid gender ' male '"),
    ("gender", '"male"', "invalid gender '\"male\"'"),
    ("gender", "Male", "invalid gender 'Male'"),
    ("previous_claim", "NONE", "invalid previous_claim 'NONE'"),
    (None, "    ", "expected 7 cells, got 1"),
    (None, ",,,,,,", "invalid literal for int() with base 10: ''"),
]


@pytest.mark.parametrize("column, text, error", OUTSIDE_THE_GRAMMAR,
                         ids=[repr(text) for _, text, _ in OUTSIDE_THE_GRAMMAR])
def test_a_spelling_outside_the_csv_grammar_exits_3_naming_its_row(
    tmp_path, fitted_artifacts, data_csv, capsys, column, text, error
):
    """predict exits 3 with one error line naming row 7, and writes no
    predictions."""
    header, *rows = data_csv.read_text().splitlines()
    if column is None:
        rows.insert(5, text)
    else:
        cells = rows[5].split(",")
        cells[CSV_COLUMNS.index(column)] = text
        rows[5] = ",".join(cells)
    book = tmp_path / "book.csv"
    book.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    out = tmp_path / "p.csv"
    capsys.readouterr()
    assert run("predict", "--model", fitted_artifacts / "glm.model", "--in", book,
               "-o", out) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: row 7: {error}") and err.count("\n") == 1, err
    assert not out.exists()


def test_signs_leading_zeros_spaces_a_trailing_point_and_empty_lines_still_load(
    tmp_path, fitted_artifacts, data_csv
):
    """An id ``+1``, ages `` 44`` and ``0044``, an income ``1000.`` and an
    empty line are in the grammar: the book is priced as the canonical one."""
    header, *rows = data_csv.read_text().splitlines()
    cells = [row.split(",") for row in rows]
    assert cells[0][0] == "1" and cells[3][3].isdigit()
    cells[0][0] = "+1"
    cells[1][2] = " " + cells[1][2]
    cells[2][2] = "00" + cells[2][2]
    cells[3][3] += "."
    lines = [header, *map(",".join, cells)]
    lines.insert(6, "")
    book = tmp_path / "book.csv"
    book.write_text("\n".join(lines) + "\n")
    model = fitted_artifacts / "glm.model"
    assert run("predict", "--model", model, "--in", data_csv, "-o", tmp_path / "a.csv") == 0
    assert run("predict", "--model", model, "--in", book, "-o", tmp_path / "b.csv") == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_predict_memory_grows_with_its_arrays_not_its_text(tmp_path, fitted_artifacts):
    """predict's traced peak grows by less than 200 bytes per row of the
    book: the model's temporaries and the formatted lines are bounded by
    the price blocks, not by the book (pricing and formatting the whole
    file at once grew about 347)."""
    peaks = []
    for n in (20000, 40000):
        book = tmp_path / f"book{n}.csv"
        assert run("gen", "--n", n, "--seed", 2, "-o", book) == 0
        tracemalloc.start()
        try:
            assert run("predict", "--model", fitted_artifacts / "gam.model", "--in", book,
                       "-o", tmp_path / "p.csv") == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 20000 < 200, peaks


@pytest.mark.filterwarnings("error")
def test_prices_not_finite_in_the_last_block_refuse_before_writing(
    tmp_path, fitted_artifacts, book_rows, monkeypatch, capsys
):
    """Prices that are not finite only on the book's last rows end predict
    with exit 4, counted out of the whole book, and nothing is written."""
    header, rows = book_rows
    book = tmp_path / "book.csv"
    book.write_text("\n".join([header, *rows]) + "\n")
    last = encode_dataset(load_csv(book))[0][-2:]
    price = GlmFamily.predict

    def predict(model, X):
        prices = price(model, X)
        prices[(X[:, None, :] == last).all(axis=2).any(axis=1)] = math.inf
        return prices

    monkeypatch.setattr(GlmFamily, "predict", staticmethod(predict))
    model = fitted_artifacts / "glm.model"
    out = tmp_path / "p.csv"
    capsys.readouterr()
    assert run("predict", "--model", model, "--in", book, "-o", out) == 4
    err = capsys.readouterr().err
    assert err == f"error: {model}: 2 of {len(rows)} predictions are not finite\n"
    assert not out.exists() and not Path(f"{out}.manifest").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key, value", [("intercept", "-1e300"), ("slope", "1e150")])
def test_compare_refuses_a_gam_whose_interaction_scan_overflows(
    tmp_path, fitted_artifacts, capsys, key, value
):
    """Extreme GAM terms whose prices stay finite can still overflow the
    sums of squares of the interaction scan: compare exits 4 with one
    error line."""
    lines = (fitted_artifacts / "gam.model").read_text().splitlines()
    at = next(k for k, line in enumerate(lines) if line.startswith(f"{key} = "))
    lines[at] = f"{key} = {value}"
    models = []
    for name in ("a", "b"):
        models += ["--model", tmp_path / f"{name}.model"]
        (tmp_path / f"{name}.model").write_text("\n".join(lines) + "\n")
        (tmp_path / f"{name}.model.test-index").write_bytes(
            (fitted_artifacts / "gam.model.test-index").read_bytes())
    capsys.readouterr()
    assert run("compare", *models, "--in", fitted_artifacts / "data.csv",
               "-o", tmp_path / "report") == 4
    err = capsys.readouterr().err
    assert err.startswith("error: interaction scan: ") and err.count("\n") == 1, err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("config, code", [
    ("penalty = nan", 3),
    ("penalty = inf", 3),
    ("penalty = 1e308", 4),  # penalty * Omega overflows
])
def test_gam_fit_on_a_system_that_is_not_finite_ends_in_one_error_line(
    tmp_path, data_csv, capsys, config, code
):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + "\n")
    capsys.readouterr()
    assert run("fit", "--family", "gam", "--in", data_csv, "--config", cfg,
               "-o", tmp_path / "gam.model") == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("kind", ["config", "artifact", "manifest"])
def test_key_value_syntax_errors_name_the_file(tmp_path, fitted_artifacts, capsys, kind):
    bad = tmp_path / f"bad.{kind}"
    if kind == "config":
        bad.write_text("knots = 5\nno equals sign here\n")
        argv = ["fit", "--family", "glm", "--in", fitted_artifacts / "data.csv",
                "--config", bad, "-o", tmp_path / "m.model"]
    elif kind == "artifact":
        bad.write_text((fitted_artifacts / "glm.model").read_text().replace(
            "link = ", "no equals sign here\nlink = ", 1))
        argv = ["predict", "--model", bad, "--in", fitted_artifacts / "data.csv",
                "-o", tmp_path / "p.csv"]
    else:
        bad.write_text("command = gen\nno equals sign here\n")
        argv = ["replay", bad]
    capsys.readouterr()
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert err.startswith(f"error: {bad}: line 2: expected 'key = value'"), err


@pytest.mark.parametrize("brk", ["\n", "\r"], ids=["LF", "CR"])
def test_an_argument_with_a_line_break_is_a_usage_error(tmp_path, capsys, brk):
    """Manifests record argv one value per line, so such an argument could
    not be replayed; it is refused before anything is written."""
    with pytest.raises(SystemExit) as exc:
        run("gen", "--n", 5, "-o", tmp_path / f"a{brk}b.csv")
    assert exc.value.code == 2
    assert "line break" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def extreme_portfolios(tmp_path_factory):
    """The README portfolio (``gen --n 200 --seed 7``), and copies of it with
    every 7th expenditure set to 1e200, 1e300 and 1e308."""
    d = tmp_path_factory.mktemp("extreme")
    assert run("gen", "--n", 200, "--seed", 7, "-o", d / "portfolio.csv") == 0
    lines = (d / "portfolio.csv").read_text().splitlines()
    for value in ("1e200", "1e300", "1e308"):
        copy = [
            line.rsplit(",", 1)[0] + "," + value if k % 7 == 0 else line
            for k, line in enumerate(lines[1:], start=1)
        ]
        (d / f"{value}.csv").write_text("\n".join([lines[0], *copy]) + "\n")
    (d / "log.cfg").write_text("link = log\n")
    return d


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family, value, config, message", [
    ("glm", "1e200", None, "key 'rss': the fit is not finite"),
    ("gam", "1e308", None, "the fit is not finite"),
    ("glm", "1e300", "log.cfg", "GLM fit: the least-squares system is not finite"),
    ("glm", "1e300", None, "key 'rss': the fit is not finite"),
    ("glm", "1e308", None, "key 'rss': the fit is not finite"),
    ("gam", "1e200", None, "key 'rss': the fit is not finite"),
    ("gam", "1e300", None, "key 'rss': the fit is not finite"),
    ("glm", "1e200", "log.cfg", "IRLS did not converge in 100 iterations"),
    ("glm", "1e308", "log.cfg", "GLM fit: the least-squares system is not finite"),
])
def test_fit_that_is_not_finite_exits_4_and_writes_nothing(
    tmp_path, extreme_portfolios, capsys, family, value, config, message
):
    """A fit whose numbers overflow ends in one error line and exit 4; no
    artifact that ``load_model`` would refuse, test index or manifest is
    written."""
    d = extreme_portfolios
    options = ["--config", d / config] if config else []
    capsys.readouterr()
    assert run("fit", "--family", family, "--in", d / f"{value}.csv", "--seed", 1, *options,
               "-o", tmp_path / "m.model") == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def overflow_inputs(extreme_portfolios):
    """``extreme_portfolios`` with a GLM and an ANN artifact fitted on the
    README portfolio, and a generator config whose noise overflows."""
    d = extreme_portfolios
    (d / "overflow.cfg").write_text("noise_outlier_rate = 1\nnoise_outlier_factor = 1e308\n")
    (d / "ann.cfg").write_text("max_epochs = 50\n")
    for family, config in (("glm", []), ("ann", ["--config", d / "ann.cfg"])):
        assert run("fit", "--family", family, "--in", d / "portfolio.csv", "--seed", 1,
                   *config, "-o", d / f"{family}.model") == 0
    return d


@pytest.mark.parametrize("argv, code", [
    (["fit", "--family", "glm", "--in", "1e200.csv", "-o", "out.model"], 4),
    (["fit", "--family", "glm", "--in", "1e308.csv", "-o", "out.model"], 4),
    (["fit", "--family", "gam", "--in", "1e308.csv", "-o", "out.model"], 4),
    (["compare", "--model", "glm.model", "--model", "ann.model", "--in", "1e200.csv",
      "--seed", "1", "-o", "report"], 4),
    # every noise draw overflows, to -inf here, so each expenditure is 0
    (["gen", "--n", "3", "--seed", "1", "--config", "overflow.cfg", "-o", "out.csv"], 0),
])
def test_numeric_overflow_prints_no_warning(overflow_inputs, argv, code):
    """In a process of its own, where no test harness captures warnings, an
    overflow leaves stderr empty on exit 0 and holds one error line on exit 4."""
    done = subprocess.run(
        [sys.executable, "-m", "pricelab", *argv], cwd=overflow_inputs, capture_output=True,
        text=True, env=package_env(),
    )
    assert done.returncode == code, done.stderr
    expected = 0 if code == 0 else 1
    assert len(done.stderr.splitlines()) == expected, done.stderr
    assert done.stderr.startswith("error: ") or code == 0, done.stderr


@pytest.mark.parametrize("family", ["gam", "ann"])
def test_a_fit_on_one_openblas_thread_writes_the_default_artifact(
    tmp_path, extreme_portfolios, family
):
    """OpenBLAS reads its thread count once, at import, so only a process
    of its own can run on one thread: there the README portfolio's fit
    writes this process's artifact, at the default thread count, byte for
    byte, and nothing to stderr."""
    argv = ["fit", "--family", family, "--in", extreme_portfolios / "portfolio.csv",
            "--seed", "1", "-o"]
    assert run(*argv, tmp_path / "default.model") == 0
    done = subprocess.run(
        [sys.executable, "-m", "pricelab", *map(str, argv), tmp_path / "one.model"],
        capture_output=True, env={**package_env(), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert (tmp_path / "one.model").read_bytes() == (tmp_path / "default.model").read_bytes()


@pytest.mark.parametrize("portfolio", [8, 18, 19, 26, 47])
def test_fit_gam_on_portfolios_that_once_did_not_converge(tmp_path, portfolio):
    csv = tmp_path / "portfolio.csv"
    assert run("gen", "--n", 200, "--seed", portfolio, "-o", csv) == 0
    assert run("fit", "--family", "gam", "--in", csv, "--seed", portfolio,
               "-o", tmp_path / "gam.model") == 0


def test_compare_needs_two_models(tmp_path, data_csv):
    model_path = tmp_path / "glm.model"
    assert run("fit", "--family", "glm", "--in", data_csv, "-o", model_path) == 0
    with pytest.raises(SystemExit) as exc:
        run("compare", "--model", model_path, "--in", data_csv, "-o", tmp_path / "r")
    assert exc.value.code == 2


@pytest.mark.parametrize("n, code", [(40, 3), (50, 0)])
def test_compare_names_the_gam_scan_size_limit(tmp_path, capsys, n, code):
    """At n = 40 the train half has the 20 rows a GAM fit needs, but the
    overfitting scan fits on 80% of it: compare refuses in one line that
    says so, before the GAM ladder starts."""
    csv = tmp_path / "portfolio.csv"
    assert run("gen", "--n", n, "--seed", 1, "-o", csv) == 0
    models = []
    for family in ("glm", "gam"):
        models += ["--model", tmp_path / f"{family}.model"]
        assert run("fit", "--family", family, "--in", csv, "--seed", 1, "-o", models[-1]) == 0
    capsys.readouterr()
    assert run("compare", *models, "--in", csv, "--seed", 1, "-o", tmp_path / "report") == code
    err = capsys.readouterr().err
    if code:
        assert err == ("error: overfitting scan: the GAM fit split has 16 rows and needs 20, "
                       "so the train half needs at least 25 rows, not 20\n")
    else:
        assert err == "" and (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("n, family, command, err", [
    (16, "ann", "fit", "error: an ANN fit needs at least 10 rows, got 8\n"),
    (30, "gam", "fit", "error: a GAM fit needs at least 20 rows, got 15\n"),
    (18, "glm", "compare",
     "error: overfitting scan: the train half has 9 rows and needs at least 10\n"),
    (20, "glm", "compare", ""),
], ids=["ann-16", "gam-30", "compare-18", "compare-20"])
def test_too_few_rows_name_the_fit_or_scan(tmp_path, capsys, n, family, command, err):
    """A portfolio too small for a fit, or for compare's overfitting scan,
    is refused in one line naming what needs the rows, not a function."""
    csv = tmp_path / "portfolio.csv"
    assert run("gen", "--n", n, "--seed", 1, "-o", csv) == 0
    models = [tmp_path / "a.model", tmp_path / "b.model"]
    capsys.readouterr()
    code = run("fit", "--family", family, "--in", csv, "--seed", 1, "-o", models[0])
    if command == "compare":
        assert code == run("fit", "--family", family, "--in", csv, "--seed", 1,
                           "-o", models[1]) == 0
        capsys.readouterr()
        code = run("compare", "--model", models[0], "--model", models[1], "--in", csv,
                   "--seed", 1, "-o", tmp_path / "report")
    assert (code, capsys.readouterr().err) == (3 if err else 0, err)


def test_compare_detects_split_mismatch(tmp_path, data_csv, capsys):
    a = tmp_path / "a.model"
    b = tmp_path / "b.model"
    assert run("fit", "--family", "glm", "--in", data_csv, "--seed", 1, "-o", a) == 0
    assert run("fit", "--family", "glm", "--in", data_csv, "--seed", 2, "-o", b) == 0
    code = run("compare", "--model", a, "--model", b,
               "--in", data_csv, "-o", tmp_path / "r")
    assert code == 3
    assert "leakage" in capsys.readouterr().err


def test_manifest_replay_reproduces_artifacts(tmp_path):
    csv_path = tmp_path / "d.csv"
    assert run("gen", "--n", 40, "--seed", 5, "-o", csv_path) == 0
    original_csv = csv_path.read_bytes()
    model_path = tmp_path / "m.model"
    assert run("fit", "--family", "glm", "--in", csv_path, "-o", model_path) == 0
    original_model = model_path.read_bytes()
    original_index = (tmp_path / "m.model.test-index").read_bytes()

    csv_path.unlink()
    assert replay_manifest(tmp_path / "d.csv.manifest") == 0
    assert csv_path.read_bytes() == original_csv

    model_path.unlink()
    (tmp_path / "m.model.test-index").unlink()
    assert replay_manifest(tmp_path / "m.model.manifest") == 0
    assert model_path.read_bytes() == original_model
    assert (tmp_path / "m.model.test-index").read_bytes() == original_index

    # same thing through the subcommand
    csv_path.unlink()
    assert run("replay", tmp_path / "d.csv.manifest") == 0
    assert csv_path.read_bytes() == original_csv


def test_replay_from_another_directory(tmp_path, monkeypatch):
    work = tmp_path / "work"
    elsewhere = tmp_path / "elsewhere"
    work.mkdir()
    elsewhere.mkdir()
    monkeypatch.chdir(work)
    assert run("gen", "--n", 40, "--seed", 5, "-o", "d.csv") == 0
    assert run("fit", "--family", "glm", "--in", "d.csv", "-o", "m.model") == 0
    outputs = ["d.csv", "m.model", "m.model.test-index"]
    before = {name: (work / name).read_bytes() for name in outputs}
    for name in outputs:
        (work / name).unlink()

    monkeypatch.chdir(elsewhere)
    assert run("replay", "../work/d.csv.manifest") == 0
    assert run("replay", work / "m.model.manifest") == 0
    assert {name: (work / name).read_bytes() for name in outputs} == before
    assert os.getcwd() == str(elsewhere)
    assert list(elsewhere.iterdir()) == []


def test_replay_missing_manifest_is_a_data_error(tmp_path, capsys):
    assert run("replay", tmp_path / "ghost.manifest") == 3
    assert "no such manifest" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", ["gen --n 5 -o 'unclosed.csv", "replay {manifest}"], ids=["unclosed-quote", "replay"]
)
def test_replay_refuses_a_damaged_or_replay_argv(tmp_path, capsys, argv):
    """An argv with an unclosed quote, or a recorded replay (of the manifest
    itself here), is a data error on one line, not a traceback."""
    manifest = tmp_path / "bad.manifest"
    manifest.write_text("argv = " + argv.format(manifest=shlex.quote(str(manifest))) + "\n")
    assert run("replay", manifest) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_one_process_writes_the_bytes_of_a_process_per_command(tmp_path, monkeypatch):
    """The parser is built once per process and only read after that, so
    commands run one after another in this process, a usage error among
    them, write the bytes that each command writes in a process of its own,
    a book priced in three blocks of rows by every family among them.  In
    its own process, where no test harness captures warnings, each command
    that succeeds writes nothing to stderr, and the usage error writes
    argparse's usage and one error line."""
    assert build_parser() is build_parser()
    usage_error = ["fit", "--family", "glm", "--in", "p.csv", "--seed", "-1", "-o", "x.model"]
    commands = [
        ["gen", "--n", "80", "--seed", "4", "-o", "p.csv"],
        usage_error,
        *(["fit", "--family", f, "--in", "p.csv", "--seed", "1", "-o", f"{f}.model"]
          for f in ("glm", "gam", "ann")),
        ["predict", "--model", "gam.model", "--in", "p.csv", "-o", "gam.preds.csv"],
        ["gen", "--n", str(2 * _PRICE_ROWS + 3), "--seed", "2", "-o", "book.csv"],
        *(["predict", "--model", f"{f}.model", "--in", "book.csv", "-o", f"{f}.book.csv"]
          for f in ("glm", "gam", "ann")),
        ["fit", "--family", "ann", "--config", "deep.cfg", "--in", "p.csv", "--seed", "1",
         "-o", "deep-ann.model"],
        ["predict", "--model", "deep-ann.model", "--in", "book.csv", "-o", "deep-ann.book.csv"],
        ["compare", "--model", "glm.model", "--model", "gam.model", "--model", "ann.model",
         "--in", "p.csv", "--seed", "1", "-o", "report"],
        ["replay", "gam.model.manifest"],
    ]
    one, each = tmp_path / "one", tmp_path / "each"
    for d in (one, each):
        d.mkdir()
        (d / "deep.cfg").write_text("hidden = 4,3\n")
    monkeypatch.chdir(one)
    for argv in commands:
        code = 2 if argv is usage_error else 0
        try:
            assert main(argv) == code, argv
        except SystemExit as exc:
            assert exc.code == code, argv
        done = subprocess.run([sys.executable, "-m", "pricelab", *argv], cwd=each,
                              capture_output=True, env=package_env())
        assert done.returncode == code, done.stderr
        errors = [line for line in done.stderr.splitlines() if b"error:" in line]
        if code:
            assert done.stderr.startswith(b"usage: ") and len(errors) == 1, done.stderr
            assert done.stderr.endswith(errors[0] + b"\n"), done.stderr
        else:
            assert done.stderr == b"", (argv, done.stderr)
    outputs = sorted(p.name for p in one.iterdir() if p.suffix != ".manifest")
    assert outputs == sorted(p.name for p in each.iterdir() if p.suffix != ".manifest")
    assert "x.model" not in outputs and "report.csv" in outputs
    for name in outputs:
        assert (one / name).read_bytes() == (each / name).read_bytes(), name


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0


# -- robustness: damaged inputs never end in a traceback ------------------------

VALID_CONFIG = (
    "# every command reads the keys it knows\n"
    "link = identity\nknots = 4\nhidden = 4,3\nmax_epochs = 50\n"
    "noise_scale = 600\ninteraction = 5000\n"
)
# input kind -> file name; the b model shares the a model's split.
FILES = {"csv": "data.csv", "config": "run.cfg", "model": "a.model", "index": "a.model.test-index"}
READS = {
    "gen": ("config",),
    "fit": ("csv", "config"),
    "predict": ("model", "csv"),
    "compare": ("model", "index", "csv"),
}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """Per family, the bytes of a valid CSV, config, artifact of that family
    and test index.  The additive model's scan needs a larger CSV."""
    inputs = {}
    for family, rows in (("glm", 24), ("gam", 50), ("ann", 24)):
        d = tmp_path_factory.mktemp(family)
        (d / "run.cfg").write_text(VALID_CONFIG)
        assert run("gen", "--n", rows, "--seed", 3, "-o", d / "data.csv") == 0
        assert run("fit", "--family", family, "--in", d / "data.csv", "--config", d / "run.cfg",
                   "-o", d / "a.model") == 0
        inputs[family] = {kind: (d / name).read_bytes() for kind, name in FILES.items()}
    return inputs


def mangled(valid: bytes):
    """``valid`` with a few byte ranges cut out and replaced by random bytes."""
    edit = st.tuples(st.integers(0, len(valid)), st.integers(0, 12), st.binary(max_size=6))

    def apply(edits):
        out = valid
        for at, cut, payload in edits:
            out = out[:at] + payload + out[at + cut:]
        return out

    return st.lists(edit, min_size=1, max_size=4).map(apply)


# A number token: not part of a key such as ``row_0`` or of a longer number.
NUMBER = re.compile(rb"(?<![\w.+-])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def extreme_number(valid: bytes):
    """``valid`` with one number token set to a finite extreme."""
    spans = [m.span() for m in NUMBER.finditer(valid)]
    pick = st.tuples(st.sampled_from(spans), st.sampled_from([b"1e308", b"-1e300", b"5e-324"]))
    return pick.map(lambda p: valid[:p[0][0]] + p[1] + valid[p[0][1]:])


def argv_for(command: str, d: Path) -> list:
    return {
        "gen": ["gen", "--n", 24, "--seed", 3, "--config", d / "run.cfg", "-o", d / "out.csv"],
        "fit": ["fit", "--family", "glm", "--in", d / "data.csv", "--config", d / "run.cfg",
                "-o", d / "out.model"],
        "predict": ["predict", "--model", d / "a.model", "--in", d / "data.csv",
                    "-o", d / "out.csv"],
        "compare": ["compare", "--model", d / "a.model", "--model", d / "b.model",
                    "--in", d / "data.csv", "-o", d / "report"],
    }[command]


@pytest.mark.parametrize("command", READS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_input_exits_with_a_code_and_one_error_line(valid_inputs, command, data):
    """Arbitrary bytes, a mangled copy of a valid file or one with a number
    set to a finite extreme, as any input a command reads, with an artifact
    of any family: exit 0, 2, 3 or 4, and stderr holds at most one error
    line (after argparse's usage line for exit 2), never a traceback.  A
    predict that exits 0 writes only finite prices, and ratio cells that
    are blank or finite."""
    valid = valid_inputs[data.draw(st.sampled_from(sorted(valid_inputs)), label="family")]
    target = data.draw(st.sampled_from(READS[command]), label="damaged input")
    damaged = data.draw(
        st.one_of(st.binary(max_size=400), mangled(valid[target]), extreme_number(valid[target])),
        label="bytes",
    )
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for kind, name in FILES.items():
            (d / name).write_bytes(damaged if kind == target else valid[kind])
        (d / "b.model").write_bytes(valid["model"])
        (d / "b.model.test-index").write_bytes(valid["index"])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = run(*argv_for(command, d))
            except SystemExit as exc:
                code = exc.code
        if code == 0 and command == "predict":
            rows = [row.split(",") for row in (d / "out.csv").read_text().splitlines()[1:]]
            assert all(math.isfinite(float(row[1])) for row in rows), rows
            assert all(row[2:] in ([], [""]) or math.isfinite(float(row[2]))
                       for row in rows), rows
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3, 4), err.getvalue()
    if code == 0:
        assert lines == []
    elif code == 2:
        assert lines[0].startswith("usage: ") and "error: " in lines[-1], err.getvalue()
        assert sum("error:" in line for line in lines) == 1, err.getvalue()
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
