"""Dataset layer: column validation, encoding, generator, subsets, CSV round-trips."""

import contextlib
import csv
import io
import itertools
import math
import os
import re
import tempfile
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from conftest import REFUSED_HEADERS, make_dataset, rows_of
from pricelab import dataset
from pricelab.dataset import (
    CLAIMS,
    CSV_COLUMNS,
    DEFAULT_ENCODING,
    Dataset,
    Gender,
    GeneratorParams,
    PriorClaim,
    encode_dataset,
    encode_with_response,
    generate_synthetic,
    holdout,
    load_csv,
    split_half,
    write_csv,
)
from pricelab.errors import ParseError, SchemaError, ValidationError, not_utf8

# Reference customers used throughout the suite.  Expenditures span the
# full dynamic range from a zero-claim year to a catastrophic one.
FIXTURE_ROWS = (
    (1, Gender.FEMALE, 58, 0.0, True, PriorClaim.COPD, 10250.0),
    (2, Gender.MALE, 32, 83000.0, False, PriorClaim.NONE, 0.0),
    (3, Gender.MALE, 45, 67000.0, True, PriorClaim.LUNG_CANCER, 148765.0),
    (4, Gender.FEMALE, 24, 45000.0, False, PriorClaim.NONE, 100.0),
    (5, Gender.FEMALE, 37, 30000.0, False, PriorClaim.DIABETES, 5200.0),
)
FIXTURE = make_dataset(FIXTURE_ROWS)


def rows_strategy(max_size=25):
    row = st.tuples(
        st.integers(min_value=1, max_value=10**6),
        st.sampled_from(Gender),
        st.integers(min_value=18, max_value=100),
        st.floats(min_value=0, max_value=5e5, allow_nan=False),
        st.booleans(),
        st.sampled_from(PriorClaim),
        st.floats(min_value=0, max_value=1e7, allow_nan=False),
    )
    return st.lists(row, min_size=1, max_size=max_size, unique_by=lambda r: r[0])


def with_values(column, rows, value):
    """A copy of ``column`` with ``value`` at the given rows."""
    out = column.copy()
    out[rows] = value
    return out


# ---------------------------------------------------------------- validation


def test_record_validation_bounds():
    for age in (18, 100):
        replace(FIXTURE, age=with_values(FIXTURE.age, 2, age))
    for age in (17, 101):
        with pytest.raises(ValidationError, match="id=3: age"):
            replace(FIXTURE, age=with_values(FIXTURE.age, 2, age))


def test_record_validation_income_and_expenditure():
    data = replace(FIXTURE, ids=[3, 1, 7, 4, 5])
    with pytest.raises(ValidationError, match="id=7"):
        replace(data, income=with_values(data.income, 2, -1.0))
    with pytest.raises(ValidationError):
        replace(data, income=with_values(data.income, 2, math.inf))
    with pytest.raises(ValidationError):
        replace(data, expenditure=with_values(data.expenditure, 2, -5.0))
    # a missing response column is legal; zero response is legal
    replace(data, expenditure=None)
    replace(data, expenditure=with_values(data.expenditure, 2, 0.0))


@pytest.mark.parametrize("column, value, words, named", [
    ("age", 17, "age 17 outside [18, 100]", 20),
    ("age", 101, "age 101 outside [18, 100]", 20),
    ("income", -1.0, "income -1.0 must be finite and >= 0", 20),
    ("income", math.inf, "income inf must be finite and >= 0", 20),
    ("income", math.nan, "income nan must be finite and >= 0", 20),
    ("expenditure", -5.0, "expenditure -5.0 must be finite and >= 0", 20),
    ("expenditure", math.inf, "expenditure inf must be finite and >= 0", 20),
    ("ids", 99, "duplicate record ids in dataset", 99),
])
def test_dataset_error_names_the_first_bad_record(column, value, words, named):
    """One broken value at rows 1 and 3 of a column: the message names the
    record by id, in the words of the per-record checks it replaced."""
    data = replace(FIXTURE, ids=[10, 20, 30, 40, 50])
    broken = with_values(getattr(data, column), [1, 3], value)
    with pytest.raises(ValidationError, match=re.escape(words)) as err:
        replace(data, **{column: broken})
    assert f"record id={named}" in str(err.value)


def test_dataset_error_follows_row_order_across_columns():
    data = replace(FIXTURE, ids=[10, 20, 30, 40, 50])
    with pytest.raises(ValidationError, match=re.escape("record id=20: income -1.0")):
        replace(data, age=with_values(data.age, 2, 17), income=with_values(data.income, 1, -1.0))
    with pytest.raises(ValidationError, match=re.escape("record id=20: age 17")):
        replace(data, age=with_values(data.age, 1, 17), income=with_values(data.income, 1, -1.0))


def test_dataset_rejects_duplicates_and_empty():
    with pytest.raises(ValidationError, match="empty"):
        Dataset(ids=[], male=[], age=[], income=[], smoker=[], claim=[])
    dup = (FIXTURE_ROWS[0], FIXTURE_ROWS[0])
    with pytest.raises(ValidationError, match="duplicate"):
        make_dataset(dup)
    with pytest.raises(ValidationError, match="equal length"):
        replace(FIXTURE, age=FIXTURE.age[:4])


def test_columns_are_read_only_copies():
    ages = np.array([40, 41, 42, 43, 44])
    data = replace(FIXTURE, age=ages)
    ages[0] = 99
    assert data.age[0] == 40
    for column in (data.ids, data.age, data.income, data.claim, data.expenditure):
        with pytest.raises(ValueError):
            column[0] = 1


# ---------------------------------------------------------------- encoding


def test_encode_hand_examples():
    """Feature vectors computed by hand from the scaling contract.

    age scales by (age-18)/62, income by income/150000, severity is the
    lookup value; gender/smoker/claim-present are raw indicators.
    """
    X, _ = encode_dataset(FIXTURE)
    assert X[0] == approx([0.0, 40 / 62, 0.0, 1.0, 1.0, 0.6])  # female, 58, 0, smoker, copd
    assert X[1] == approx([1.0, 14 / 62, 83 / 150, 0.0, 0.0, 0.0])  # male, 32, 83000, no claim
    assert X[2] == approx([1.0, 27 / 62, 67 / 150, 1.0, 1.0, 1.0])  # male, 45, 67000, lung cancer
    assert X[4] == approx([0.0, 19 / 62, 0.2, 0.0, 1.0, 0.4])  # female, 37, 30000, diabetes


def test_encode_clamps_out_of_range():
    """Ages past 80 and incomes past 150000 clip to 1.0; the range floors map to 0.0."""
    rows = [(1, Gender.MALE, 90, 200000.0, False, PriorClaim.NONE, None),
            (2, Gender.FEMALE, 18, 0.0, False, PriorClaim.NONE, None)]
    X, _ = encode_dataset(make_dataset(rows))
    assert X[:, 1:3].tolist() == [[1.0, 1.0], [0.0, 0.0]]


@given(rows_strategy())
def test_encode_always_in_unit_cube(rows):
    X, _ = encode_dataset(make_dataset(rows))
    assert X.shape == (len(rows), 6)
    assert np.all(X >= 0.0) and np.all(X <= 1.0)
    for x, (_, gender, _, _, smoker, claim, _) in zip(X, rows):
        assert x[0] == (gender is Gender.MALE) and x[3] == smoker
        assert x[4] in (0.0, 1.0)
        assert x[5] == DEFAULT_ENCODING.claim_severity[claim]
        assert (x[4] == 0.0) == (claim is PriorClaim.NONE)


def test_encode_dataset_missing_response():
    """The response is a whole column: present for every row, or absent."""
    headless = replace(FIXTURE, expenditure=None)
    X, y = encode_dataset(headless)
    assert X.shape == (5, 6)
    assert y is None
    with pytest.raises(ValidationError, match="expenditure"):
        encode_with_response(headless)
    X, y = encode_dataset(FIXTURE)
    assert y == approx([10250.0, 0.0, 148765.0, 100.0, 5200.0])
    one_missing = list(FIXTURE_ROWS)
    one_missing[2] = (*FIXTURE_ROWS[2][:-1], None)
    with pytest.raises(ValidationError, match="expenditure"):
        make_dataset(one_missing)


# ---------------------------------------------------------------- generator


def test_generate_shape_and_ids():
    data = generate_synthetic(GeneratorParams(n=57, seed=3))
    assert data.n == 57
    assert data.ids.tolist() == list(range(1, 58))


def test_generate_deterministic():
    a = generate_synthetic(GeneratorParams(n=40, seed=11))
    b = generate_synthetic(GeneratorParams(n=40, seed=11))
    assert rows_of(a) == rows_of(b)
    c = generate_synthetic(GeneratorParams(n=40, seed=12))
    assert rows_of(a) != rows_of(c)


def test_generate_expenditure_nonnegative():
    """Soft-plus keeps expenditures >= 0; deep-negative linear scores
    underflow to exactly 0.0, the no-claims-this-year case."""
    data = generate_synthetic(GeneratorParams(n=300, seed=0, noise_scale=5000.0))
    assert np.all(data.expenditure >= 0)
    assert np.any(data.expenditure == 0.0)


def test_generate_degenerate_softplus():
    """All coefficients zero: every expenditure equals softplus(base_cost)."""
    flat = GeneratorParams(
        n=20, seed=2, base_cost=5.0, coef_gender=0.0, coef_age=0.0,
        coef_income=0.0, coef_smoker=0.0, coef_claim_present=0.0,
        coef_claim_severity=0.0, interaction=0.0, collinearity_rho=0.0,
        noise_scale=0.0,
    )
    data = generate_synthetic(flat)
    expected = math.log1p(math.exp(5.0))
    assert data.expenditure == approx(np.full(20, expected), abs=1e-12)


@pytest.mark.parametrize("age_curvature", [0.0, 2500.0])
def test_generate_expenditure_is_the_per_row_ground_truth(age_curvature):
    """The batch ``eta`` gives every row the bits of the per-row formula,
    whose coefficient sum is one ``coef @ x`` dot product."""
    params = GeneratorParams(n=3000, seed=11, age_curvature=age_curvature)
    X, _ = encode_dataset(generate_synthetic(params))
    coef = params.coefficients()
    reference = np.array([
        params.base_cost + float(coef @ x) + params.age_curvature * x[1] ** 2
        + params.interaction * x[3] * x[5]
        for x in X
    ])
    assert np.array_equal(params.eta(X), reference)
    noiseless = generate_synthetic(replace(params, noise_scale=0.0))
    assert np.array_equal(noiseless.expenditure, np.logaddexp(0.0, reference))


def test_generate_collinearity_targets_sample_correlation():
    """corr(smoker, severity) should land near the requested rho.

    At n=2000 the binomial sampling error on a correlation is well under
    0.05, so a 0.1 tolerance is a real check of the attenuation algebra.
    """
    for rho in (0.0, 0.3, 0.8):
        data = generate_synthetic(GeneratorParams(n=2000, seed=1, collinearity_rho=rho))
        X, _ = encode_dataset(data)
        sample = np.corrcoef(X[:, 3], X[:, 5])[0, 1]
        assert sample == approx(rho, abs=0.1)


def test_generate_noise_outliers_touch_a_minority_of_rows():
    """Setting the outlier rate to zero must only change rows the heavy-tail
    mask hit: everything upstream of the mask draws identically."""
    base = GeneratorParams(n=400, seed=9, noise_scale=600.0)
    plain = GeneratorParams(n=400, seed=9, noise_scale=600.0, noise_outlier_rate=0.0)
    with_tail = generate_synthetic(base)
    without = generate_synthetic(plain)
    changed = with_tail.expenditure != without.expenditure
    # rate 0.1 of 400 rows, binomial: expect ~40, fail only far outside
    assert 15 <= np.count_nonzero(changed) <= 80
    assert rows_of(with_tail.take(~changed)) == rows_of(without.take(~changed))


def test_generator_params_validation():
    with pytest.raises(ValidationError):
        GeneratorParams(n=0)
    with pytest.raises(ValidationError, match="seed"):
        GeneratorParams(seed=-1)
    with pytest.raises(ValidationError):
        GeneratorParams(noise_scale=-1.0)
    with pytest.raises(ValidationError):
        GeneratorParams(collinearity_rho=1.5)
    with pytest.raises(ValidationError):
        GeneratorParams(noise_outlier_rate=-0.1)
    with pytest.raises(ValidationError):
        GeneratorParams(noise_outlier_rate=1.01)
    with pytest.raises(ValidationError):
        GeneratorParams(noise_outlier_factor=-1.0)
    GeneratorParams(noise_outlier_rate=0.0, noise_outlier_factor=0.0)


# ---------------------------------------------------------------- split


def test_split_half_sizes():
    even = generate_synthetic(GeneratorParams(n=10, seed=0))
    train, test = split_half(even, seed=5)
    assert (train.n, test.n) == (5, 5)
    odd = generate_synthetic(GeneratorParams(n=11, seed=0))
    train, test = split_half(odd, seed=5)
    assert (train.n, test.n) == (6, 5)  # train gets the extra record


@given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=50))
@settings(max_examples=30, deadline=None)
def test_split_half_partition(n, seed):
    data = generate_synthetic(GeneratorParams(n=n, seed=0))
    train, test = split_half(data, seed=seed)
    assert set(train.ids.tolist()) | set(test.ids.tolist()) == set(data.ids.tolist())
    assert np.intersect1d(train.ids, test.ids).size == 0
    again_train, again_test = split_half(data, seed=seed)
    assert rows_of(train) == rows_of(again_train)
    assert rows_of(test) == rows_of(again_test)


def test_take_keeps_the_order_asked_for(tmp_path):
    """A boolean mask keeps file order; positions keep their own order."""
    path = tmp_path / "shuffled.csv"
    data = generate_synthetic(GeneratorParams(n=12, seed=4))
    write_csv(replace(data, ids=np.random.default_rng(1).permutation(12) + 100), path)
    loaded = load_csv(path)
    wanted = [111, 100, 105, 103]
    picked = loaded.take(np.isin(loaded.ids, wanted))
    assert picked.ids.tolist() == [i for i in loaded.ids.tolist() if i in wanted]
    assert rows_of(picked) == [row for row in rows_of(loaded) if row[0] in wanted]
    assert rows_of(loaded.take([5, 0, 7])) == [rows_of(loaded)[k] for k in (5, 0, 7)]


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_holdout_is_the_rule_the_scan_and_train_used(n, seed):
    """``holdout`` gives exactly the rows that the overfitting scan's own
    split and ``train``'s rolled permutation held out before it was the one
    rule; both reference formulas are written out here."""
    fit, val = holdout(n, seed)
    perm = np.random.default_rng(seed).permutation(n)
    n_val = max(1, int(round(n * 0.2)))  # the scan's split: a Dataset.take of each part
    assert (fit.tolist(), val.tolist()) == (perm[n_val:].tolist(), perm[:n_val].tolist())
    n_val = max(1, int(round(0.2 * n)))  # train: validation rows after the fit rows
    order = np.roll(perm, -n_val)
    assert np.concatenate((fit, val)).tolist() == order.tolist()
    assert (fit.tolist(), val.tolist()) == (order[:-n_val].tolist(), order[-n_val:].tolist())


def test_split_half_too_small():
    solo = make_dataset(FIXTURE_ROWS[:1])
    with pytest.raises(ValidationError):
        split_half(solo, seed=0)
    with pytest.raises(ValidationError, match="seed"):
        split_half(make_dataset(FIXTURE_ROWS), seed=-1)


# ---------------------------------------------------------------- CSV


def test_csv_round_trip_fixture(tmp_path):
    path = tmp_path / "customers.csv"
    write_csv(FIXTURE, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    back = load_csv(path)
    assert rows_of(back) == list(FIXTURE_ROWS)


@given(rows_strategy())
@settings(max_examples=40, deadline=None)
def test_csv_round_trip_property(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    data = make_dataset(rows)
    write_csv(data, path)
    assert rows_of(load_csv(path)) == rows_of(data)


def test_csv_without_response_column(tmp_path):
    path = tmp_path / "predict_me.csv"
    write_csv(replace(FIXTURE, expenditure=None), path)
    assert path.read_text().splitlines()[0] == ",".join(CSV_COLUMNS[:-1])
    back = load_csv(path)
    assert back.expenditure is None
    assert rows_of(back) == [(*row[:-1], None) for row in FIXTURE_ROWS]


def test_csv_round_trip_is_byte_identical_at_20000_rows(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_csv(generate_synthetic(GeneratorParams(n=20000, seed=2)), first)
    write_csv(load_csv(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_load_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,gender,age,salary,smoke,previous_claim,expenditure\n")
    with pytest.raises(SchemaError, match="salary"):
        load_csv(path)


@pytest.mark.parametrize("header, unexpected", [
    (REFUSED_HEADERS["padded"], "' gender '"),
    (REFUSED_HEADERS["quoted"], "'\"id\"'"),
    (REFUSED_HEADERS["tab"], "'id\\t'"),
    (REFUSED_HEADERS["line-break"], "'\"id'"),
], ids=list(REFUSED_HEADERS))
def test_a_header_is_its_exact_names_split_on_commas(tmp_path, header, unexpected):
    """A header name that is padded, quoted or followed by a tab is
    refused, and so is a quoted name holding a line break; the error shows
    the unexpected name by its ``repr``."""
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n1,male,44,1000,no,none,50\n")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: bad header; .*"
                                          f"unexpected column\\(s\\): {re.escape(unexpected)}$"):
        load_csv(path)


def test_a_crlf_header_loads_and_the_first_row_is_row_2(tmp_path):
    """A header ending in CRLF is the header; a bad line right after it
    is named row 2."""
    path = tmp_path / "crlf.csv"
    path.write_bytes(b",".join(c.encode() for c in CSV_COLUMNS) + b"\r\n"
                     b"1,male,44,1000,no,none,50\r\n")
    assert rows_of(load_csv(path)) == [(1, Gender.MALE, 44, 1000.0, False, PriorClaim.NONE, 50.0)]
    path.write_bytes(b",".join(c.encode() for c in CSV_COLUMNS) + b"\r\n"
                     b"1,male,elderly,1000,no,none,50\r\n")
    with pytest.raises(ParseError, match="^row 2: ") as err:
        load_csv(path)
    assert err.value.row == 2


def test_load_csv_parse_error_names_row(tmp_path):
    path = tmp_path / "bad_row.csv"
    path.write_text(
        ",".join(CSV_COLUMNS) + "\n"
        "1,male,44,1000,no,none,50\n"
        "2,male,elderly,1000,no,none,50\n"
    )
    with pytest.raises(ParseError, match="row 3") as err:
        load_csv(path)
    assert err.value.row == 3


def test_load_csv_invariant_error_names_record(tmp_path):
    path = tmp_path / "bad_age.csv"
    path.write_text(
        ",".join(CSV_COLUMNS) + "\n" + "9,male,12,1000,no,none,50\n"
    )
    with pytest.raises(ValidationError, match="id=9"):
        load_csv(path)


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(SchemaError):
        load_csv(path)


@pytest.mark.parametrize("where, pad, line", [
    pytest.param("header", "x", 1, id="header-1"),
    pytest.param("body", "x", 3, id="body-3"),
    *(pytest.param(column, pad, 3, id=f"{column}-{name}-3")
      for column in ("id", "age", "income", "expenditure")
      for pad, name in (("0", "zeros"), (" ", "spaces"))),
])
def test_an_over_long_cell_is_a_parse_error_naming_its_line(tmp_path, where, pad, line):
    """A line past the field size limit of 131072 characters is refused
    as a ``ParseError`` naming the file and the line, in the header or a row.
    So is a number padded with zeros or spaces past the limit, which
    ``int`` and ``float`` would read, also after a block of lines that the
    fast reader takes."""
    long = pad * (csv.field_size_limit() + 1)
    header = ",".join(CSV_COLUMNS)
    rows = ["1,male,44,1000,no,none,50", "2,male,44,1000,no,none,50"]
    if where == "header":
        header = header.replace("gender", "gender" + long)
    elif where == "body":
        rows[1] = rows[1].replace("male", long)
    else:
        cells = rows[1].split(",")
        cells[CSV_COLUMNS.index(where)] = long + cells[CSV_COLUMNS.index(where)]
        rows[1] = ",".join(cells)
    path = tmp_path / "long.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    for parse_lines in (dataset._PARSE_LINES, 1):
        with pytest.MonkeyPatch.context() as patch, pytest.raises(
                ParseError, match=f"^{re.escape(str(path))}: line {line}: field larger"):
            patch.setattr(dataset, "_PARSE_LINES", parse_lines)
            load_csv(path)


# The CSV grammar's texts per text column, in flag or code order.
_GRAMMAR_TEXTS = {1: [g.value for g in Gender], 4: ["no", "yes"], 5: [c.value for c in CLAIMS]}


def _row_by_row_load_csv(path):
    """The reference loader of the CSV grammar: the header is the first
    line split on commas; each line of the body is read in turn, empty
    lines are skipped, and every other line is split on commas.  A text
    must be one of its column's exact texts; a number must be ASCII, hold
    no ``_``, and be read by ``int`` (within int64) or ``float``.  The
    first line outside the grammar is reported: an over-long line by its
    line number, else by its row, naming a wrong cell count, else its first
    bad cell (id, age and income checked first), else a number outside the
    grammar."""
    def lines(fh):
        try:
            yield from fh
        except UnicodeDecodeError:
            raise not_utf8(path) from None

    path = Path(path)
    limit = csv.field_size_limit()
    with open(path, encoding="utf-8", newline="") as fh:
        body = lines(fh)
        line = next(body, "")
        if not line:
            raise SchemaError(f"{path}: file is empty")
        header = tuple(line.rstrip("\r\n").split(","))
        if header not in (CSV_COLUMNS, CSV_COLUMNS[:-1]):
            raise SchemaError(f"{path}: bad header")

        columns = [[] for _ in header]
        for row_no, line in enumerate(body, start=2):
            if len(line) > limit:
                raise ParseError(
                    f"{path}: line {row_no}: field larger than field limit ({limit})")
            cells = line.rstrip("\r\n").split(",")
            if cells == [""]:
                continue
            if len(cells) != len(header):
                raise ParseError(
                    f"row {row_no}: expected {len(header)} cells, got {len(cells)}", row=row_no
                )
            values, in_grammar = [None] * len(cells), True
            for j in (0, 2, 3, 1, 4, 5, 6)[:len(cells)]:
                cell = cells[j]
                if j in _GRAMMAR_TEXTS:
                    if cell not in _GRAMMAR_TEXTS[j]:
                        raise ParseError(
                            f"row {row_no}: invalid {CSV_COLUMNS[j]} {cell!r} "
                            f"(expected one of: {', '.join(_GRAMMAR_TEXTS[j])})", row=row_no
                        )
                    values[j] = _GRAMMAR_TEXTS[j].index(cell)
                    continue
                number = int if j in (0, 2) else float
                try:
                    values[j] = number(cell)
                except ValueError as exc:
                    raise ParseError(f"row {row_no}: {exc}", row=row_no) from None
                in_grammar &= (cell.isascii() and "_" not in cell
                               and (number is float or -2**63 <= values[j] < 2**63))
            if not in_grammar:
                raise ParseError(f"row {row_no}: a number outside the CSV grammar "
                                 "(ASCII, no '_', integers within int64)", row=row_no)
            for column, value in zip(columns, values):
                column.append(value)
    if not columns[0]:
        raise ValidationError(f"{path}: empty dataset")
    return Dataset(*columns)


def _outcome(load, path):
    """The rows a loader returns, or the type, message and row of its error."""
    try:
        return rows_of(load(path))
    except (ParseError, SchemaError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "row", None)


# Cell texts per column: the first ones are in the grammar (ASCII spaces
# around a number, a sign, leading zeros, a trailing point), the rest are
# outside it or break an invariant.  Outside it are padded, capitalised and
# quoted texts, a line break (which ``csv.writer`` quotes), a ``_`` in a
# number and a full-width digit; so are numbers padded with U+001C-U+001F,
# which ``np.loadtxt`` reads as spaces and ``int()`` and ``float()`` refuse,
# or with U+2003, which all three read as a space.
_GOOD_CELLS = (
    None,  # the id is the row's position unless it is mangled
    ("male", "female"),
    ("44", " 18", "100 ", "+44", "0044"),
    ("1000", "2.5e4", " 0 ", "1000."),
    ("yes", "no"),
    ("none", "copd", "other"),
    ("50", "0.25", " 1e3 "),
)
_BAD_CELLS = (
    ("x", "", "1.5", "1", "9223372036854775808", "99999999999999999999", "1\n2", "1_0"),
    ("Male", "unknown", "", "ma\nle", " female", "male ", '"male"'),
    ("elderly", "", "17", "4.4", "99999999999999999999", "\x1c44\x1d", "\u200318",
     "\uff130"),
    ("abc", "", "-1", "nan", "inf", "1_000", "\x1e1000\x1f", "0\u2003"),
    ("maybe", "", "y", "No", " YES "),
    ("NONE", "flu", "", "copd "),
    ("x", "", "-5", "nan", "7\n", "\x1f50\x1c", "\u20030.25"),
)
# Inserted rows: an empty line, the only one in the grammar; a row of
# commas, a row of spaces, and rows with too few or too many cells.
_ODD_ROWS = {
    "blank": [], "commas": [""] * 7, "spaces": [" ", "\t"],
    "short": ["9", "male", "40"], "long": ["9", "male", "40", "1", "no", "none", "5", "6"],
}


@st.composite
def mangled_csvs(draw):
    """CSV text of mostly good rows with a few bad cells and odd rows."""
    n = draw(st.integers(min_value=0, max_value=14))
    rows = [
        [str(k + 1)] + [draw(st.sampled_from(cells)) for cells in _GOOD_CELLS[1:]]
        for k in range(n)
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if rows:
            row = draw(st.integers(min_value=0, max_value=n - 1))
            column = draw(st.integers(min_value=0, max_value=6))
            rows[row][column] = draw(st.sampled_from(_BAD_CELLS[column]))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=len(rows)))
        rows.insert(at, list(_ODD_ROWS[draw(st.sampled_from(sorted(_ODD_ROWS)))]))
    header = list(CSV_COLUMNS)
    if draw(st.booleans()):  # no response column
        header.pop()
        rows = [row[:-1] if len(row) == 7 else row for row in rows]
    text = io.StringIO(newline="")
    csv.writer(text).writerows([header, *rows])
    return text.getvalue()


# Per CSV column, cells that are almost canonical: some are in the grammar
# (a sign, leading zeros, a trailing point, an ASCII space), and load as
# ``int``/``float`` read them; the rest are refused.
_NEAR_MISSES = (
    ("+44", "0044", "9223372036854775808", "1.0"),
    ("femalex", '"male"', "m\u00e2le", "Male"),
    ("+44", "0044", "1.0", " 44", "\uff130"),
    ("1e400", "nan", "+1000", "1_000"),
    ("Yes", " no", "yes "),
    ("lung_cancerx", "NONE", '"copd"'),
    ("1e400", "nan", "-0", "5."),
)
# Row ends that are almost CRLF: a lone CR and an empty line, which load,
# then a line of spaces or a row of commas after the row, which do not.
_NEAR_MISS_ENDS = ("\r", "\r\n\r\n", "\r\n    \r\n", "\r\n,,,,,,\r\n")


@st.composite
def near_miss_csvs(draw):
    """``write_csv`` text of generated rows, with or without the response
    column, with at most two cells or row ends swapped for near misses:
    many such files still load, at any block size."""
    data = generate_synthetic(GeneratorParams(n=draw(st.integers(min_value=1, max_value=12)),
                                              seed=draw(st.integers(min_value=0, max_value=99))))
    if draw(st.booleans()):
        data = replace(data, expenditure=None)
    with tempfile.TemporaryDirectory() as tmp:
        write_csv(data, Path(tmp) / "data.csv")
        header, *rows = (Path(tmp) / "data.csv").read_bytes().decode().split("\r\n")[:-1]
    rows = [row.split(",") for row in rows]
    ends = ["\r\n"] * len(rows)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        row = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        if draw(st.booleans()):
            column = draw(st.integers(min_value=0, max_value=len(rows[row]) - 1))
            rows[row][column] = draw(st.sampled_from(_NEAR_MISSES[column]))
        else:
            ends[row] = draw(st.sampled_from(_NEAR_MISS_ENDS))
    return header + "\r\n" + "".join(",".join(row) + end for row, end in zip(rows, ends))


def _assert_loads_as_the_row_by_row_reader(path, text, block_rows):
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "_PARSE_LINES", block_rows)
        assert _outcome(load_csv, path) == _outcome(_row_by_row_load_csv, path)


@given(mangled_csvs(), st.sampled_from([1, 3]))
@settings(max_examples=300, deadline=None)
def test_load_csv_matches_the_row_by_row_reader(tmp_path_factory, text, block_rows):
    """Blocks of 1 and 3 lines put empty lines and errors on and across
    block edges: the columns, or the first error in row order with its
    message and row, are the reference loader's."""
    path = tmp_path_factory.mktemp("mangled") / "data.csv"
    _assert_loads_as_the_row_by_row_reader(path, text, block_rows)


@given(near_miss_csvs(), st.sampled_from([1, 3]))
@settings(max_examples=300, deadline=None)
def test_load_csv_matches_the_row_by_row_reader_on_near_misses(tmp_path_factory, text,
                                                               block_rows):
    """Near misses among canonical lines, on and across the edges of the
    C reader's blocks, leave the reference loader's outcome: the file loads
    to its table, or fails with its first error."""
    path = tmp_path_factory.mktemp("near") / "data.csv"
    _assert_loads_as_the_row_by_row_reader(path, text, block_rows)


class _CheckRowReached(Exception):
    pass


def _refuse_check(path, line, row_no, width):
    """``_check_row`` for a load that must refuse no line."""
    raise _CheckRowReached


def test_a_canonical_file_never_reaches_check_row_and_a_padded_cell_is_its_rows_error(
        tmp_path, monkeypatch):
    """With ``_check_row`` refusing to run, a canonical 5000-row file still
    loads, to its table.  A copy with one gender cell padded deep into the
    file is refused, naming that cell's row."""
    data = generate_synthetic(GeneratorParams(n=5000, seed=3))
    path = tmp_path / "book.csv"
    write_csv(data, path)
    lines = path.read_bytes().split(b"\r\n")
    with monkeypatch.context() as patch:
        patch.setattr(dataset, "_check_row", _refuse_check)
        assert rows_of(load_csv(path)) == rows_of(data)
    gender = "male" if data.male[4000] else "female"
    lines[4001] = lines[4001].replace(f",{gender},".encode(), f", {gender},".encode())
    padded = tmp_path / "padded.csv"
    padded.write_bytes(b"\r\n".join(lines))
    with pytest.raises(ParseError, match=f"^row 4002: invalid gender ' {gender}' ") as err:
        load_csv(padded)
    assert err.value.row == 4002


@pytest.mark.parametrize("cell", ["male\x00", "\x00male"])
def test_a_nul_in_a_text_cell_is_refused_and_named(tmp_path, cell):
    """A byte string drops trailing NULs, so loadtxt alone would read
    ``male\\x00`` as ``male``: the C reader refuses a line with a NUL, and
    the error names the cell."""
    path = tmp_path / "nul.csv"
    path.write_text(",".join(CSV_COLUMNS) + f"\r\n1,{cell},44,1000,no,none,50\r\n",
                    encoding="utf-8", newline="")
    with pytest.raises(ParseError, match=f"^row 2: invalid gender {re.escape(repr(cell))} "):
        load_csv(path)


@pytest.mark.parametrize("width", [len(CSV_COLUMNS), len(CSV_COLUMNS) - 1])
@pytest.mark.parametrize("column", ["gender", "smoke", "previous_claim"])
@pytest.mark.parametrize("cell", ["a", "fe", "mal", "nonex", "zz", ""])
def test_a_text_cell_between_the_canonical_texts_goes_to_the_block_reader(tmp_path, width,
                                                                          column, cell):
    """Cells that sort before, between and after a column's canonical texts
    are refused by the fast reader's ``searchsorted`` decode, and the file
    loads to the row-by-row reader's error, message and row."""
    rows = [["1", "male", "44", "1000", "no", "none", "50"],
            ["2", "female", "45", "2000", "yes", "copd", "60"],
            ["3", "male", "46", "3000", "no", "other", "70"]]
    rows[1][CSV_COLUMNS.index(column)] = cell
    lines = [",".join(row[:width]) + "\r\n" for row in rows]
    assert dataset._parse_lines(lines, width) is None
    path = tmp_path / "between.csv"
    path.write_text(",".join(CSV_COLUMNS[:width]) + "\r\n" + "".join(lines),
                    encoding="utf-8", newline="")
    outcome = _outcome(load_csv, path)
    assert outcome[0] is ParseError and outcome[2] == 3
    assert outcome == _outcome(_row_by_row_load_csv, path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("edits", [
    pytest.param([], id=",male,"),
    pytest.param([(b",male,", b", male,")], id=", male,"),
    pytest.param([(b",yes,", b",Yes,"), (b",no,", b",No,")], id=",Yes,-,No,"),
    pytest.param([(b",male,", b',"male",'), (b",female,", b',"female",')], id=',"male",'),
])
def test_a_pipe_loads_as_a_file_does(tmp_path, edits):
    """A pipe is read once, to the table a regular file of the same bytes
    loads to, or to its error: a padded, capitalised or quoted cell is
    refused, and the writer then meets a pipe closed before its end."""
    data = generate_synthetic(GeneratorParams(n=3000, seed=4))
    path, pipe = tmp_path / "book.csv", tmp_path / "pipe.csv"
    write_csv(data, path)
    text = path.read_bytes()
    for old, new in edits:
        text = text.replace(old, new)
    path.write_bytes(text)
    os.mkfifo(pipe)

    def feed():
        with contextlib.suppress(BrokenPipeError), open(pipe, "wb") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    outcome = _outcome(load_csv, pipe)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert outcome == _outcome(load_csv, path)
    if edits:
        assert outcome[0] is ParseError and outcome[2] == 2
    else:
        assert outcome == rows_of(data)


@pytest.mark.parametrize("width, columns", [
    pytest.param(width, pair, id="-".join([str(width), *(CSV_COLUMNS[j] for j in pair)]))
    for width in (len(CSV_COLUMNS), len(CSV_COLUMNS) - 1)
    for pair in itertools.combinations(range(width), 2)
])
def test_a_row_with_two_bad_cells_reports_the_reference_readers_error(tmp_path, width, columns):
    """For every pair of columns, a row whose cells fail to parse in both
    reports the error the row-by-row reader reports: the id, age and income
    are checked before the other columns."""
    good = ["1"] + [cells[0] for cells in _GOOD_CELLS[1:width]]
    bad = ["2"] + good[1:]
    for column in columns:
        bad[column] = _BAD_CELLS[column][0]
    path = tmp_path / "two_bad_cells.csv"
    path.write_text("".join(",".join(row) + "\n" for row in (CSV_COLUMNS[:width], good, bad)))
    outcome = _outcome(load_csv, path)
    assert outcome[0] is ParseError and outcome[2] == 3
    assert outcome == _outcome(_row_by_row_load_csv, path)


@pytest.mark.parametrize("block_rows", [3, dataset._PARSE_LINES])
def test_an_error_before_undecodable_bytes_still_comes_first(tmp_path, block_rows, monkeypatch):
    """Text is decoded a chunk at a time, so rows before the chunk that holds a
    bad byte are read before it fails.  A bad row among them is reported, as
    the row-by-row reader reports it, whichever block of rows or of the fast
    reader's lines it falls in."""
    monkeypatch.setattr(dataset, "_PARSE_LINES", block_rows)
    good = [f"{k},male,44,1000,no,none,50\r\n".encode() for k in range(1, 400)]
    good[320] = b"\xff" + good[320]  # in the second 8 KB chunk
    seen = set()
    for bad in range(240, 320):
        rows = list(good)
        rows[bad] = f"{bad + 1},male,elderly,1000,no,none,50\r\n".encode()
        path = tmp_path / f"bad{bad}.csv"
        path.write_bytes((",".join(CSV_COLUMNS) + "\r\n").encode() + b"".join(rows))
        outcome = _outcome(load_csv, path)
        assert outcome == _outcome(_row_by_row_load_csv, path)
        seen.add(outcome[2])
    assert None in seen and len(seen) > 1  # both "not UTF-8" and a row's error occur


def _csv_writer_bytes(data):
    """The reference writer: ``csv.writer`` over the formatted columns."""
    def number(value):
        return str(int(value)) if value.is_integer() else repr(value)

    header = CSV_COLUMNS if data.expenditure is not None else CSV_COLUMNS[:-1]
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    for rec_id, gender, age, income, smoker, claim, spend in rows_of(data):
        row = [rec_id, gender.value, age, number(income), "yes" if smoker else "no", claim.value]
        if spend is not None:
            row.append(number(spend))
        writer.writerow(row)
    return text.getvalue().encode("utf-8")


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=2**62),
            st.sampled_from(Gender),
            st.integers(min_value=18, max_value=100),
            st.one_of(st.floats(min_value=0, max_value=1e300),
                      st.integers(min_value=0, max_value=10**300).map(float),
                      st.just(-0.0)),
            st.booleans(),
            st.sampled_from(PriorClaim),
            st.one_of(st.floats(min_value=0, max_value=1e300),
                      st.sampled_from([5e-324, 2.2250738585072014e-308, -0.0, 1e300])),
        ),
        min_size=1, max_size=20, unique_by=lambda r: r[0],
    ),
    st.booleans(),
    st.sampled_from([1, 3, dataset._WRITE_ROWS]),
)
@settings(max_examples=100, deadline=None)
def test_write_csv_writes_the_bytes_of_csv_writer(tmp_path_factory, rows, with_response,
                                                  write_rows):
    """Blocks of 1 and 3 rows put rows on and across block edges; the
    bytes are the same at every block size."""
    data = make_dataset(rows)
    if not with_response:
        data = replace(data, expenditure=None)
    path = tmp_path_factory.mktemp("write") / "data.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "_WRITE_ROWS", write_rows)
        write_csv(data, path)
    assert path.read_bytes() == _csv_writer_bytes(data)


# Numbers on the edges of ``write_csv``'s three masks: both zeros, values
# that are not whole, whole values up to the largest double below 2**63,
# and whole values from 2**63 on.
_MASK_EDGES = (0.0, -0.0, 0.5, 1.0, 2.0**53, 2.0**53 + 2, 9223372036854774784.0, 2.0**63,
               1e16, 1e20, 1e300, 5e-324)


@pytest.mark.parametrize("write_rows", [1, 3, dataset._WRITE_ROWS])
def test_numbers_on_the_formatters_mask_edges_write_the_bytes_of_csv_writer(tmp_path,
                                                                             monkeypatch,
                                                                             write_rows):
    """Income and expenditure texts of one block holding every mask edge
    are ``_format_number``'s, and the file is ``csv.writer``'s bytes at
    every block size; ages 18 and 100 are the age table's edges."""
    data = make_dataset([
        (k + 1, (Gender.FEMALE, Gender.MALE)[k % 2], (18, 100)[k % 2], value, k % 3 == 0,
         CLAIMS[k % len(CLAIMS)], value)
        for k, value in enumerate(_MASK_EDGES)
    ])
    for j, column in ((3, data.income), (6, data.expenditure)):
        assert dataset._FORMATTERS[j](column) == list(map(dataset._format_number, _MASK_EDGES))
    monkeypatch.setattr(dataset, "_WRITE_ROWS", write_rows)
    write_csv(data, tmp_path / "edges.csv")
    assert (tmp_path / "edges.csv").read_bytes() == _csv_writer_bytes(data)


def test_writing_a_large_book_holds_one_block_of_lines(tmp_path):
    """The traced peak of ``write_csv`` does not grow with the table: one
    block's strings are held at a time.  Whole-column formatting held about
    317 B a row of a 20000-row book."""
    peaks = []
    for n in (20000, 40000):
        data = generate_synthetic(GeneratorParams(n=n, seed=2))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_csv(data, tmp_path / f"book{n}.csv")
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 20 * 20000


# Traced peak of the row-by-row reader, which held every value in Python
# lists, on the 20000-row book below (4.524 MB with CPython 3.11, numpy 2.4).
ROW_BY_ROW_PEAK = 4_524_000


def test_loading_a_large_book_holds_one_block_of_rows(tmp_path):
    path = tmp_path / "book.csv"
    write_csv(generate_synthetic(GeneratorParams(n=20000, seed=2)), path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= ROW_BY_ROW_PEAK
