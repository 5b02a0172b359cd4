"""Dataset layer: column validation, encoding, generator, subsets, CSV round-trips."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from conftest import make_dataset, rows_of
from pricelab.dataset import (
    CSV_COLUMNS,
    DEFAULT_ENCODING,
    Dataset,
    EncodingConfig,
    Gender,
    GeneratorParams,
    PriorClaim,
    encode_dataset,
    encode_with_response,
    generate_synthetic,
    load_csv,
    split_half,
    write_csv,
)
from pricelab.errors import ParseError, SchemaError, ValidationError

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
    old_and_rich = make_dataset([(1, Gender.MALE, 100, 300000.0, False, PriorClaim.NONE, None)])
    x = encode_dataset(old_and_rich)[0][0]
    assert x[1] == 1.0  # (100-18)/62 > 1 clamps
    assert x[2] == 1.0
    narrow = EncodingConfig(age_range=(30.0, 40.0), income_range=(0.0, 1000.0))
    x = encode_dataset(FIXTURE, narrow)[0][3]  # age 24 below range, income 45000 above
    assert x[1] == 0.0
    assert x[2] == 1.0


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


def test_encoding_config_validation():
    with pytest.raises(ValidationError):
        EncodingConfig(age_range=(80.0, 18.0))
    with pytest.raises(ValidationError):
        EncodingConfig(income_range=(0.0, 0.0))
    with pytest.raises(ValidationError):
        EncodingConfig(claim_severity={PriorClaim.NONE: 0.0})  # incomplete map


# ---------------------------------------------------------------- generator


def test_generate_shape_and_ids():
    data = generate_synthetic(GeneratorParams(n=57, seed=3))
    assert data.n == 57
    assert data.ids.tolist() == list(range(1, 58))
    assert data.provenance == "synthetic"
    assert data.generator_params == GeneratorParams(n=57, seed=3)


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
    assert picked.provenance == "loaded"


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
