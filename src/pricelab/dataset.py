"""The customer table, feature encoding, CSV files and the synthetic generator.

A ``Dataset`` holds the table as read-only numpy columns, one entry per
customer in file order:

    ids          int64    record id, unique
    male         bool     gender
    age          int64    years, in [18, 100]
    income       float64  finite, >= 0
    smoker       bool
    claim        int64    previous claim, a code into ``CLAIMS`` (0 is none)
    expenditure  float64  finite, >= 0; None when the response column is absent

``write_csv`` and ``load_csv`` move a table to and from a CSV file with the
``CSV_COLUMNS`` header.  ``write_csv`` formats a block of rows a column at
a time: texts and ages by lookup in a table, and income and expenditure by
three masks (a whole value below 2**63 as the text of its int64, any
other value by ``repr``, a whole value past int64 as ``str(int(value))``).
``load_csv`` reads the grammar ``write_csv`` writes: a header line of the
exact ``CSV_COLUMNS`` (the last may be left off), then one line per row,
ASCII numbers that ``np.loadtxt`` and ``int``/``float`` read alike, the
exact lowercase texts, and empty lines skipped; no line is padded, quoted
or longer than ``_FIELD_LIMIT``.  ``_parse_lines`` is the only parser of
the body: it parses blocks of lines in C (``np.loadtxt``) and decodes
their texts by ``searchsorted``.  A file with a line it refuses does not
load; ``_check_row`` names that line's error, checking the numbers (id,
age, income) of a row before its other columns.

Every model in the package consumes the same six-component feature vector,
all components scaled into [0, 1]:

    (gender, age_scaled, income_scaled, smoker, claim_present, claim_severity)

The single categorical predictor (previous claim) is split into a presence
flag and a severity score so that downstream models see purely numeric
inputs.  ``DEFAULT_ENCODING`` is the one encoding: its age and income
ranges, clipped outside, and its severity lookup.

``generate_synthetic`` draws a population from ``GeneratorParams``, whose
``eta`` is the exact noise-free ground truth of a whole feature matrix.  The
population rates are fixed: ``_SMOKE_RATE``, ``_CLAIM_RATE`` and
``_CLAIM_CATEGORY_PROBS``; a portfolio has at most ``MAX_ROWS`` records.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Mapping, NoReturn

import numpy as np

from .errors import ParseError, SchemaError, ValidationError, not_utf8

CSV_COLUMNS = ("id", "gender", "age", "income", "smoke", "previous_claim", "expenditure")
FEATURE_NAMES = ("gender", "age", "income", "smoker", "claim_present", "claim_severity")
N_FEATURES = len(FEATURE_NAMES)
# Largest synthetic portfolio: a bound on the generated columns, checked
# before any of them is allocated.
MAX_ROWS = 1_000_000
# Share of a training set that ``holdout`` keeps out of the fit for validation.
VALIDATION_FRACTION = 0.2

# Design constants of the generator population.  Smoking and claim rates are
# equal on purpose: copying the smoker flag into the claim flag with
# probability phi then leaves both marginals untouched while the correlation
# between the two flags is exactly phi.
_SMOKE_RATE = 0.35
_CLAIM_RATE = 0.35
_CLAIM_CATEGORY_PROBS = (0.35, 0.25, 0.15, 0.25)  # of claim codes 1-4

class Gender(enum.Enum):
    FEMALE = "female"
    MALE = "male"


class PriorClaim(enum.Enum):
    NONE = "none"
    DIABETES = "diabetes"
    COPD = "copd"
    LUNG_CANCER = "lung_cancer"
    OTHER = "other"


CLAIMS = tuple(PriorClaim)  # the ``Dataset.claim`` codes; code 0 is NONE


@dataclass(frozen=True)
class EncodingConfig:
    """Scaling ranges and the claim-severity lookup of ``encode_dataset``."""

    age_range: tuple[float, float]
    income_range: tuple[float, float]
    claim_severity: Mapping[PriorClaim, float]


# The one encoding every model is fit and priced with.
DEFAULT_ENCODING = EncodingConfig(
    age_range=(18.0, 80.0),
    income_range=(0.0, 150000.0),
    claim_severity={
        PriorClaim.NONE: 0.0,
        PriorClaim.DIABETES: 0.4,
        PriorClaim.COPD: 0.6,
        PriorClaim.LUNG_CANCER: 1.0,
        PriorClaim.OTHER: 0.5,
    },
)


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs of the synthetic population.

    Expenditure ground truth, evaluated on the encoded feature vector x:

        eta = base_cost + sum_j coef_j * x_j
              + age_curvature * x_age^2
              + interaction * x_smoker * x_claim_severity
        expenditure = softplus(eta + noise)

    The noise is a zero-mean gaussian scale mixture: spread ``noise_scale``
    for most records, inflated by ``noise_outlier_factor`` for a random
    ``noise_outlier_rate`` fraction.  Medical expenditure residuals are
    heavy-tailed, and the occasional large shock is what makes overfitting
    visible on validation curves at realistic sample sizes; set the rate to 0
    for plain gaussian noise.  softplus keeps expenditures positive; for any
    eta above ~40 it is the identity to double precision, so noiseless
    configurations reproduce the linear ground truth exactly.
    ``collinearity_rho`` is the target sample correlation between the smoker
    flag and the claim-severity feature.
    """

    n: int = 200
    seed: int = 0
    base_cost: float = 2000.0
    coef_gender: float = 500.0
    coef_age: float = 4000.0
    coef_income: float = -1000.0
    coef_smoker: float = 1500.0
    coef_claim_present: float = 2000.0
    coef_claim_severity: float = 6000.0
    age_curvature: float = 0.0
    interaction: float = 5000.0
    collinearity_rho: float = 0.3
    noise_scale: float = 600.0
    noise_outlier_rate: float = 0.1
    noise_outlier_factor: float = 8.0

    def __post_init__(self) -> None:
        if not (1 <= self.n <= MAX_ROWS):
            raise ValidationError(f"n must lie in [1, {MAX_ROWS}], got {self.n}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 <= self.collinearity_rho < 1.0):
            raise ValidationError(
                f"collinearity_rho must lie in [0, 1), got {self.collinearity_rho}"
            )
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValidationError(f"noise_scale must be >= 0, got {self.noise_scale}")
        if not (0.0 <= self.noise_outlier_rate <= 1.0):
            raise ValidationError(
                f"noise_outlier_rate must lie in [0, 1], got {self.noise_outlier_rate}"
            )
        if not (math.isfinite(self.noise_outlier_factor) and self.noise_outlier_factor >= 0):
            raise ValidationError(
                f"noise_outlier_factor must be >= 0, got {self.noise_outlier_factor}"
            )
        for name in ("base_cost", "coef_gender", "coef_age", "coef_income",
                     "coef_smoker", "coef_claim_present", "coef_claim_severity",
                     "age_curvature", "interaction"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")

    def coefficients(self) -> np.ndarray:
        return np.array(
            [self.coef_gender, self.coef_age, self.coef_income,
             self.coef_smoker, self.coef_claim_present, self.coef_claim_severity]
        )

    def eta(self, X: np.ndarray) -> np.ndarray:
        """Noise-free linear predictor at each row of an (n, 6) feature matrix.

        The coefficient sum is one dot product per row (a stacked matmul of
        (1, 6) by (6, 1)), so each row gets the bits ``coef @ x`` gives it;
        ``X @ coef`` sums in another order and differs in the last bit on
        some rows, which would change generated CSVs.
        """
        dot = np.matmul(X[:, None, :], self.coefficients()[:, None])[:, 0, 0]
        return (
            self.base_cost
            + dot
            + self.age_curvature * X[:, 1] ** 2
            + self.interaction * X[:, 3] * X[:, 5]
        )


# Column name -> dtype; ``expenditure`` may also be None.
_COLUMNS = {
    "ids": np.int64, "male": bool, "age": np.int64, "income": float,
    "smoker": bool, "claim": np.int64, "expenditure": float,
}


@dataclass(frozen=True, eq=False)
class Dataset:
    """The customer table as read-only columns (see the module docstring).

    Constructing one is the only validation of customer data: failures name
    the first offending ``record id=...`` in row order.
    """

    ids: np.ndarray
    male: np.ndarray
    age: np.ndarray
    income: np.ndarray
    smoker: np.ndarray
    claim: np.ndarray
    expenditure: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in self._columns():
            try:
                column = np.array(getattr(self, name), dtype=_COLUMNS[name])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"column {name}: {exc}") from None
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if {getattr(self, name).shape for name in self._columns()} != {(self.n,)}:
            raise ValidationError("columns must be one-dimensional and of equal length")
        if self.n == 0:
            raise ValidationError("empty dataset")

        checks = [
            ((self.age < 18) | (self.age > 100), self.age, "age {} outside [18, 100]"),
            (~(np.isfinite(self.income) & (self.income >= 0)), self.income,
             "income {} must be finite and >= 0"),
            ((self.claim < 0) | (self.claim >= len(CLAIMS)), self.claim,
             f"previous_claim code {{}} outside [0, {len(CLAIMS)})"),
        ]
        if self.expenditure is not None:
            checks.append((~(np.isfinite(self.expenditure) & (self.expenditure >= 0)),
                           self.expenditure, "expenditure {} must be finite and >= 0"))
        bad = np.logical_or.reduce([mask for mask, _, _ in checks])
        if bad.any():
            i = int(np.argmax(bad))
            column, text = next((c, t) for mask, c, t in checks if mask[i])
            raise ValidationError(f"record id={self.ids[i]}: " + text.format(column[i].item()))

        repeated = np.ones(self.n, dtype=bool)
        repeated[np.unique(self.ids, return_index=True)[1]] = False
        if repeated.any():
            raise ValidationError(
                f"duplicate record ids in dataset: record id={self.ids[np.argmax(repeated)]} "
                "appears more than once"
            )

    @property
    def n(self) -> int:
        return self.ids.size

    def _columns(self) -> list[str]:
        return [name for name in _COLUMNS if name != "expenditure" or self.expenditure is not None]

    def take(self, index) -> "Dataset":
        """The rows at ``index`` (positions or a boolean mask), in that order."""
        return replace(self, **{name: getattr(self, name)[index] for name in self._columns()})


def encode_dataset(dataset: Dataset) -> tuple[np.ndarray, np.ndarray | None]:
    """(X, y): the (n, 6) feature matrix of ``DEFAULT_ENCODING``, clamped
    into [0, 1], and the expenditure column (None when absent)."""
    age_lo, age_hi = DEFAULT_ENCODING.age_range
    inc_lo, inc_hi = DEFAULT_ENCODING.income_range
    severity = np.array([DEFAULT_ENCODING.claim_severity[claim] for claim in CLAIMS])
    X = np.empty((dataset.n, N_FEATURES))
    X[:, 0] = dataset.male
    X[:, 1] = np.clip((dataset.age - age_lo) / (age_hi - age_lo), 0.0, 1.0)
    X[:, 2] = np.clip((dataset.income - inc_lo) / (inc_hi - inc_lo), 0.0, 1.0)
    X[:, 3] = dataset.smoker
    X[:, 4] = dataset.claim != 0
    X[:, 5] = severity[dataset.claim]
    return X, dataset.expenditure


def encode_with_response(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """``encode_dataset`` for fitting and scoring, which need the response."""
    X, y = encode_dataset(dataset)
    if y is None:
        raise ValidationError("no expenditure column: fitting and scoring need the response")
    return X, y


def feature_matrix(X) -> np.ndarray:
    """``X`` as an (n, 6) float matrix of encoded rows; one row is a batch of one."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != N_FEATURES:
        raise ValidationError(f"features must have shape (n, {N_FEATURES}), got {X.shape}")
    return X


def _severity_attenuation() -> float:
    """Correlation carried from the claim flag into the severity feature.

    With severity = claim_present * S and S independent of the smoker flag,
    corr(smoker, severity) = phi * kappa where phi = corr(smoker, claim flag)
    and kappa depends only on the claim rate and the severity distribution.
    """
    p = _CLAIM_RATE
    sev = np.array([DEFAULT_ENCODING.claim_severity[claim] for claim in CLAIMS[1:]])
    probs = np.array(_CLAIM_CATEGORY_PROBS)
    mean_s = float(probs @ sev)
    mean_s2 = float(probs @ sev**2)
    var_v = p * mean_s2 - p**2 * mean_s**2
    if var_v <= 0:
        return 0.0
    return mean_s * math.sqrt(p * (1 - p)) / math.sqrt(var_v)


def generate_synthetic(params: GeneratorParams) -> Dataset:
    """Draw a synthetic customer population with known ground truth.

    Deterministic for a fixed seed.  ``params.eta`` of the encoded features
    is the noise-free ground truth behind each record.
    """
    rng = np.random.default_rng(params.seed)
    n = params.n

    age_lo, age_hi = (int(round(v)) for v in DEFAULT_ENCODING.age_range)
    inc_lo, inc_hi = (int(round(v)) for v in DEFAULT_ENCODING.income_range)

    genders = rng.integers(0, 2, size=n)
    ages = rng.integers(age_lo, age_hi + 1, size=n)
    incomes = rng.integers(inc_lo, inc_hi + 1, size=n).astype(float)
    smokers = rng.random(n) < _SMOKE_RATE

    kappa = _severity_attenuation()
    phi = 0.0 if kappa <= 0 else min(1.0, params.collinearity_rho / kappa)
    copy_smoker = rng.random(n) < phi
    fresh_claims = rng.random(n) < _CLAIM_RATE
    claim_present = np.where(copy_smoker, smokers, fresh_claims)
    categories = rng.choice(len(_CLAIM_CATEGORY_PROBS), size=n, p=_CLAIM_CATEGORY_PROBS)
    if params.noise_scale > 0:
        noise = rng.normal(0.0, params.noise_scale, size=n)
        heavy = rng.random(n) < params.noise_outlier_rate
        noise[heavy] *= params.noise_outlier_factor
    else:
        noise = np.zeros(n)

    data = Dataset(
        ids=np.arange(1, n + 1), male=genders == 1, age=ages, income=incomes,
        smoker=smokers, claim=np.where(claim_present, categories + 1, 0),
    )
    X, _ = encode_dataset(data)
    return replace(data, expenditure=np.logaddexp(0.0, params.eta(X) + noise))


def split_half(dataset: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Shuffle deterministically and split; the train half gets ceil(n/2) rows."""
    if dataset.n < 2:
        raise ValidationError("split_half needs at least 2 records")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    perm = np.random.default_rng(seed).permutation(dataset.n)
    k = math.ceil(dataset.n / 2)
    return dataset.take(perm[:k]), dataset.take(perm[k:])


def holdout(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (fit, validation) row positions of an n-row training set.

    The first ``max(1, round(VALIDATION_FRACTION * n))`` positions of
    ``default_rng(seed).permutation(n)`` are held out for validation, and
    the rest, in that order, are fit.  ``ann.train`` holds out its
    early-stopping rows by this rule and ``overfit_scan`` its scoring rows.
    """
    perm = np.random.default_rng(seed).permutation(n)
    k = max(1, round(VALIDATION_FRACTION * n))
    return perm[k:], perm[:k]


def _format_number(value: float) -> str:
    if value.is_integer():
        return str(int(value))
    return repr(value)


# Rows of a CSV file formatted and written at a time: the strings of one
# block, not of the whole table, at about 0.5 ms more per 20000 rows.
_WRITE_ROWS = 4096

_GENDER_TEXT = (Gender.FEMALE.value, Gender.MALE.value)  # indexed by the ``male`` flag
_SMOKE_TEXT = ("no", "yes")  # indexed by the ``smoker`` flag
_CLAIM_TEXT = tuple(claim.value for claim in CLAIMS)


def _lookup(texts):
    """The formatter of a column of indices into ``texts``: one ``take``
    from a read-only object array per block."""
    table = np.array(texts, dtype=object)
    table.flags.writeable = False
    return lambda values: table.take(values).tolist()


def _ints(values: np.ndarray) -> list[str]:
    return list(map(repr, values.tolist()))  # an int's ``str``, by a faster call


def _numbers(values: np.ndarray) -> list[str]:
    """``_format_number`` of each (finite) value, by three masks: a whole
    value below 2**63 is the text of its int64, any other value is its
    ``repr``, and a whole value past int64 goes to ``_format_number``."""
    texts = np.empty(values.size, dtype=object)
    whole = values == np.trunc(values)
    fits = whole & (np.abs(values) < 2.0**63)
    texts[fits] = _ints(values[fits].astype(np.int64))
    texts[~whole] = list(map(repr, values[~whole].tolist()))
    texts[whole & ~fits] = list(map(_format_number, values[whole & ~fits].tolist()))
    return texts.tolist()


# Per CSV column, in ``Dataset`` column order: the texts of a block of values
# (``Dataset`` bounds ages to [18, 100]).
_FORMATTERS = (
    _ints, _lookup(_GENDER_TEXT), _lookup([str(age) for age in range(101)]), _numbers,
    _lookup(_SMOKE_TEXT), _lookup(_CLAIM_TEXT), _numbers,
)


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write records in the canonical column order (UTF-8, no currency symbols).

    The bytes are those of ``csv.writer``: no field needs quoting (digits,
    enum values and the ``repr`` of finite floats), and every row ends in
    CRLF.  Each block of ``_WRITE_ROWS`` rows is formatted a column at a
    time by ``_FORMATTERS``, with no Python call per cell but the ``repr``
    of an integer and of a float that is not whole.
    """
    names = dataset._columns()
    arrays = [getattr(dataset, name) for name in names]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS[:len(names)]) + "\r\n")
        for start in range(0, dataset.n, _WRITE_ROWS):
            columns = [text(array[start:start + _WRITE_ROWS])
                       for array, text in zip(arrays, _FORMATTERS)]
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def _append(arrays: list[np.ndarray], n: int, columns: list) -> tuple[list[np.ndarray], int]:
    """(``arrays`` with ``columns`` written from row ``n`` on, the new row
    count); a full array grows to twice its size or to fit the block.

    One growing array per column, rather than an array per block, leaves
    no trail of small buffers in the heap.
    """
    k = len(columns[0])
    if n + k > arrays[0].size:  # copy the rows written: the rest stays untouched
        grown = [np.empty(max(2 * a.size, n + k), a.dtype) for a in arrays]
        for new, old in zip(grown, arrays):
            new[:n] = old[:n]
        arrays = grown
    for array, values in zip(arrays, columns):
        array[n:n + k] = values
    return arrays, n + k


# Lines per loadtxt call (as fast as 4096, with a quarter of the text).
_PARSE_LINES = 1024
_FIELD_LIMIT = 131072  # longest line with its ending (csv's default); loadtxt has no limit
_TEXTS = {1: _GENDER_TEXT, 4: _SMOKE_TEXT, 5: _CLAIM_TEXT}  # by CSV column
_RECORD = [(name, f"S{max(map(len, _TEXTS[j])) + 1}" if j in _TEXTS else dtype)
           for j, (name, dtype) in enumerate(_COLUMNS.items())]  # see _parse_lines
# Per text column: its canonical texts as sorted bytes, and their flags or codes.
_DECODE = {j: (np.array(sorted(text.encode() for text in texts)), np.argsort(texts))
           for j, texts in _TEXTS.items()}
# The order in which ``_check_row`` checks a line's cells: the numbers (id,
# age, income) first.  The response is last, so a file without it checks a
# prefix of this order.
_CHECK_ORDER = (0, 2, 3, 1, 4, 5, 6)


def _parse_lines(lines: list[str], width: int) -> list[np.ndarray] | None:
    """The only parser of a customer-CSV body: the columns of ``lines``
    parsed by ``np.loadtxt``, texts as flags or codes, or None if it
    refuses a line or every line is empty.  It takes ASCII numbers that
    ``int`` and ``float`` read alike and the exact texts of ``_TEXTS``
    (each read one byte wider than the longest, to cut none down to one)."""
    # A byte string drops NULs; loadtxt reads U+001C-U+001F, which ``int``
    # and ``float`` refuse, and Unicode spaces as spaces.
    text = "".join(lines)
    if (not text.isascii() or any(c in text for c in "\x00\x1c\x1d\x1e\x1f")
            or max(map(len, lines)) > _FIELD_LIMIT):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a deprecated parse, or no rows
        try:
            block = np.loadtxt(lines, _RECORD[:width], delimiter=",", comments=None,
                               quotechar=None, ndmin=1)
        except (ValueError, Warning):
            return None
    columns = [block[name] for name in block.dtype.names]
    for j, (keys, codes) in _DECODE.items():
        at = np.minimum(keys.searchsorted(columns[j]), keys.size - 1)
        if not (keys[at] == columns[j]).all():
            return None
        columns[j] = codes[at]  # the flag or the code
    return columns


def _cells(path: Path, line: str, line_no: int) -> list[str]:
    """Line ``line_no`` of a customer CSV, the header or a row, split on
    commas without its line ending; no cell is stripped, case-folded or
    unquoted.  A line longer than ``_FIELD_LIMIT`` is a ``ParseError``."""
    if len(line) > _FIELD_LIMIT:
        raise ParseError(f"{path}: line {line_no}: field larger than field limit ({_FIELD_LIMIT})")
    return line.rstrip("\r\n").split(",")


def _check_row(path: Path, line: str, row_no: int, width: int) -> NoReturn:
    """Raise the error of line ``row_no``, which ``_parse_lines`` refuses.

    The error names the line's ``_cells`` error, its cell count, or the
    first cell, in ``_CHECK_ORDER``, that is not one of its column's
    ``_TEXTS`` or that ``int`` or ``float`` (by the column's ``_COLUMNS``
    dtype) refuses; failing that, a number that the C reader alone refuses.
    """
    cells = _cells(path, line, row_no)
    if len(cells) != width:
        raise ParseError(f"row {row_no}: expected {width} cells, got {len(cells)}", row=row_no)
    for j in _CHECK_ORDER[:width]:
        cell = cells[j]
        if j in _TEXTS:
            if cell not in _TEXTS[j]:
                raise ParseError(f"row {row_no}: invalid {CSV_COLUMNS[j]} {cell!r} "
                                 f"(expected one of: {', '.join(_TEXTS[j])})", row=row_no)
            continue
        try:
            (int if _RECORD[j][1] is np.int64 else float)(cell)
        except ValueError as exc:
            raise ParseError(f"row {row_no}: {exc}", row=row_no) from None
    raise ParseError(f"row {row_no}: a number outside the CSV grammar "
                     "(ASCII, no '_', integers within int64)", row=row_no)


def load_csv(path: str | Path) -> Dataset:
    """Load and validate a customer CSV.

    The header is the first line's ``_cells``: ``CSV_COLUMNS``, with or
    without the expenditure column (prediction-only input).  The body is
    parsed in blocks of ``_PARSE_LINES`` lines.  A block ``_parse_lines``
    refuses is an error unless every line in it is empty: ``_check_row``
    raises the error of the first line it refuses on its own, by its row
    (the header is row 1).  Invariant failures name the record id.
    """
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            line = fh.readline()
        except UnicodeDecodeError:
            raise not_utf8(path) from None
        if not line:
            raise SchemaError(f"{path}: file is empty")
        header = tuple(_cells(path, line, 1))
        if header not in (CSV_COLUMNS, CSV_COLUMNS[:-1]):
            missing = [c for c in CSV_COLUMNS[:-1] if c not in header]
            extra = [repr(c) for c in header if c not in CSV_COLUMNS]
            detail = [f"{what} column(s): {', '.join(names)}"
                      for what, names in (("missing", missing), ("unexpected", extra)) if names]
            raise SchemaError(f"{path}: bad header; " + ("; ".join(detail) or
                              f"column order must be {','.join(CSV_COLUMNS)}"))

        width = len(header)
        arrays = [np.empty(0, dtype) for dtype in list(_COLUMNS.values())[:width]]
        n, row_no = 0, 2  # rows loaded, and the row of the next line read
        while True:
            lines, undecodable = [], False
            try:
                lines.extend(islice(fh, _PARSE_LINES))
            except UnicodeDecodeError:  # raised once the lines read before it are checked
                undecodable = True
            columns = lines and _parse_lines(lines, width)
            if columns:
                arrays, n = _append(arrays, n, columns)
            elif columns is None:  # an error, unless every line is empty
                for row, line in enumerate(lines, start=row_no):
                    if line.rstrip("\r\n") and _parse_lines([line], width) is None:
                        _check_row(path, line, row, width)
            if undecodable:
                raise not_utf8(path)
            if not lines:
                break
            row_no += len(lines)
    if n == 0:
        raise ValidationError(f"{path}: empty dataset")
    return Dataset(*(a[:n] for a in arrays))
