"""Command-line pipeline: gen, fit, predict, compare.

``predict`` prices an input file in blocks of ``_PRICE_ROWS`` rows, with the
bits of the library's one batch call, refuses prices that are not finite
before it writes any, and formats and writes its lines a block at a time, so
its memory grows with the file's arrays, not with its text.  A block is
formatted a column at a time: the ``repr`` of each id (an int's ``str``)
and price, and of each ratio, whose column is one numpy division (IEEE
division gives the bits of Python's ``p / a``), blank where the actual is 0.

Every command but ``replay`` writes a ``<output>.manifest`` next to its
primary output, in the ``key = value`` syntax of config files, recording the
exact argv, working directory, config path, seed and tool version; replaying
the manifest from any directory reproduces the artifact byte for byte
(timestamps aside).

Exit codes: 0 success, 2 usage, 3 data, file or validation problem, 4 fit
failure.

The parser is built once per process and never changed, so a process that
runs several commands (``replay``, a script calling ``main`` in a loop) does
not pay the milliseconds argparse takes to build it on every call.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import os
import shlex
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import load_model, save_model
from .config import (
    band_from_mapping,
    dump_sections,
    generator_from_mapping,
    model_settings_from_mapping,
    read_config,
    read_sections,
)
from .dataset import encode_dataset, load_csv, split_half, write_csv, generate_synthetic
from .errors import (
    ConvergenceError,
    DivergenceError,
    NumericError,
    PricelabError,
    ValidationError,
    read_text,
)
from .evaluation import (
    _PRICE_ROWS, FAMILIES, compare, finite_predictions, render_markdown, report_csv,
)

_FIT_ERRORS = (ConvergenceError, DivergenceError, NumericError)
# The commands that write a manifest, and so the only ones replay re-runs.
_MANIFESTED = ("gen", "fit", "predict", "compare")


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_manifest(
    primary_output: Path,
    command: str,
    argv: list[str],
    *,
    seed: int | None,
    config_path: str | None,
    inputs: list[str],
    outputs: list[str],
) -> None:
    pairs = [
        ("command", command),
        ("argv", shlex.join(argv)),
        ("cwd", os.getcwd()),
        ("config", config_path or "none"),
        ("seed", "none" if seed is None else str(seed)),
        ("inputs", ",".join(inputs) or "none"),
        ("outputs", ",".join(outputs)),
        ("version", __version__),
        ("timestamp", _timestamp()),
    ]
    Path(str(primary_output) + ".manifest").write_text(
        dump_sections([("", pairs)]), encoding="utf-8"
    )


def replay_manifest(path: str | Path) -> int:
    """Re-run the command recorded in a manifest, from the working directory
    it was first run in; returns its exit code."""
    if not Path(path).is_file():
        raise ValidationError(f"{path}: no such manifest")
    fields = dict(read_sections(path)[0][1])
    if "argv" not in fields:
        raise ValidationError(f"{path}: manifest has no argv line")
    try:
        argv = shlex.split(fields["argv"])
    except ValueError as exc:
        raise ValidationError(f"{path}: unreadable argv: {exc}") from None
    command = argv[0] if argv else ""
    if command not in _MANIFESTED:
        raise ValidationError(
            f"{path}: cannot replay {command!r}: only {', '.join(_MANIFESTED)} write manifests"
        )
    here = os.getcwd()
    try:
        os.chdir(fields.get("cwd", here))
    except OSError as exc:
        raise ValidationError(f"{path}: cannot enter recorded directory: {exc}") from None
    try:
        return main(argv)
    finally:
        os.chdir(here)


def _seed(text: str) -> int:
    """``--seed`` values: anything but a non-negative integer is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _load_mapping(config_path: str | None) -> dict[str, str]:
    return read_config(config_path) if config_path else {}


def _cmd_gen(args: argparse.Namespace, argv: list[str]) -> int:
    params = generator_from_mapping(_load_mapping(args.config))
    try:  # a bad --n or --seed is a usage error, a bad config value a data error
        if args.n is not None:
            params = dataclasses.replace(params, n=args.n)
        if args.seed is not None:
            params = dataclasses.replace(params, seed=args.seed)
    except ValidationError as exc:
        args.parser.error(str(exc))
    data = generate_synthetic(params)
    out = Path(args.out)
    write_csv(data, out)
    _write_manifest(
        out, "gen", argv, seed=params.seed, config_path=args.config,
        inputs=[], outputs=[str(out)],
    )
    print(f"wrote {data.n} records to {out}")
    return 0


def _cmd_fit(args: argparse.Namespace, argv: list[str]) -> int:
    settings = model_settings_from_mapping(_load_mapping(args.config))
    family_type = FAMILIES[args.family]
    family = family_type(**{f.name: settings[f.name] for f in dataclasses.fields(family_type)})
    data = load_csv(args.input)
    train_half, test_half = split_half(data, args.seed)
    model = family.fit(train_half)

    out = Path(args.out)
    save_model(model, out)
    index_path = Path(str(out) + ".test-index")
    index_path.write_text(
        "\n".join(map(str, test_half.ids.tolist())) + "\n", encoding="utf-8"
    )
    _write_manifest(
        out, "fit", argv, seed=args.seed, config_path=args.config,
        inputs=[str(args.input)], outputs=[str(out), str(index_path)],
    )
    print(f"fit {args.family} on {train_half.n} rows; artifact at {out}")
    return 0


def _cmd_predict(args: argparse.Namespace, argv: list[str]) -> int:
    model = load_model(args.model)
    data = load_csv(args.input)
    X, actual = encode_dataset(data)
    predict = partial(FAMILIES[model.family].predict, model)
    predictions = finite_predictions(predict, X, args.model)
    out = Path(args.out)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("id,predicted_expenditure" + ("" if actual is None else ",ratio") + "\n")
        for start in range(0, data.n, _PRICE_ROWS):
            block = slice(start, start + _PRICE_ROWS)
            columns = [map(repr, data.ids[block].tolist()),
                       map(repr, predictions[block].tolist())]
            if actual is not None:  # main's errstate silences the zero divisions
                ratios = list(map(repr, (predictions[block] / actual[block]).tolist()))
                for i in np.flatnonzero(actual[block] == 0).tolist():
                    ratios[i] = ""
                columns.append(ratios)
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")
    _write_manifest(
        out, "predict", argv, seed=None, config_path=None,
        inputs=[str(args.model), str(args.input)], outputs=[str(out)],
    )
    print(f"wrote {data.n} predictions to {out}")
    return 0


def _cmd_compare(args: argparse.Namespace, argv: list[str]) -> int:
    if len(args.models) < 2:
        args.parser.error("compare needs at least two --model artifacts")
    band = band_from_mapping(_load_mapping(args.config))
    models = [load_model(p) for p in args.models]
    index_sets = []
    for path in args.models:
        index_path = Path(str(path) + ".test-index")
        if not index_path.exists():
            raise ValidationError(f"missing test index file {index_path}")
        try:
            ids = [int(line) for line in read_text(index_path).split()]
            index_sets.append(np.unique(np.array(ids, dtype=np.int64)))
        except (ValueError, OverflowError) as exc:
            raise ValidationError(f"{index_path}: {exc}") from None
    if any(not np.array_equal(ids, index_sets[0]) for ids in index_sets[1:]):
        raise ValidationError(
            "leakage: model artifacts disagree about the held-out test records"
        )

    data = load_csv(args.input)
    in_test = np.isin(data.ids, index_sets[0])
    if np.count_nonzero(in_test) != index_sets[0].size:
        raise ValidationError("test index references ids missing from the input file")
    test = data.take(in_test)
    train = data.take(~in_test)

    report = compare(models, test, train=train, seed=args.seed, **band)
    out_md = Path(args.out + ".md")
    out_csv = Path(args.out + ".csv")
    out_md.write_text(render_markdown(report), encoding="utf-8")
    out_csv.write_text(report_csv(report), encoding="utf-8")
    _write_manifest(
        out_md, "compare", argv, seed=args.seed, config_path=args.config,
        inputs=[str(args.input), *map(str, args.models)],
        outputs=[str(out_md), str(out_csv)],
    )
    print(render_markdown(report))
    return 0


def _cmd_replay(args: argparse.Namespace, argv: list[str]) -> int:
    return replay_manifest(args.manifest)


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pricelab",
        description="Generate, fit and compare expenditure pricing models.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic customer CSV")
    p_gen.add_argument("--n", type=int, default=None, help="number of records")
    p_gen.add_argument("--seed", type=_seed, default=None, help="generator seed")
    p_gen.add_argument("--config", default=None, help="key-value config file")
    p_gen.add_argument("-o", "--out", required=True, help="output CSV path")
    p_gen.set_defaults(func=_cmd_gen, parser=p_gen)

    p_fit = sub.add_parser("fit", help="split a CSV in half and fit one family")
    p_fit.add_argument("--family", required=True, choices=tuple(FAMILIES))
    p_fit.add_argument("--in", dest="input", required=True, help="input CSV")
    p_fit.add_argument("--seed", type=_seed, default=0, help="split seed")
    p_fit.add_argument("--config", default=None, help="key-value config file")
    p_fit.add_argument("-o", "--out", required=True, help="model artifact path")
    p_fit.set_defaults(func=_cmd_fit, parser=p_fit)

    p_pred = sub.add_parser("predict", help="apply a model artifact to a CSV")
    p_pred.add_argument("--model", required=True, help="model artifact path")
    p_pred.add_argument("--in", dest="input", required=True, help="input CSV")
    p_pred.add_argument("-o", "--out", required=True, help="output CSV path")
    p_pred.set_defaults(func=_cmd_predict, parser=p_pred)

    p_cmp = sub.add_parser("compare", help="evaluate fitted artifacts on the shared test half")
    p_cmp.add_argument(
        "--model", dest="models", action="append", required=True,
        help="model artifact path (repeat; at least two)",
    )
    p_cmp.add_argument("--in", dest="input", required=True, help="full data CSV")
    p_cmp.add_argument("--seed", type=_seed, default=0, help="seed for the scans")
    p_cmp.add_argument("--config", default=None, help="key-value config file")
    p_cmp.add_argument("-o", "--out", required=True, help="output prefix (.md/.csv)")
    p_cmp.set_defaults(func=_cmd_compare, parser=p_cmp)

    p_rep = sub.add_parser("replay", help="re-run the command recorded in a manifest")
    p_rep.add_argument("manifest", help="path to a .manifest file")
    p_rep.set_defaults(func=_cmd_replay, parser=p_rep)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    if any("\n" in arg or "\r" in arg for arg in argv):
        # Manifests record argv one value per line; refuse before any output.
        parser.error("arguments must not contain line breaks")
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # a non-finite result is refused, not warned of
            return args.func(args, argv)
    except _FIT_ERRORS as exc:
        code, message = 4, str(exc)
    except PricelabError as exc:
        code, message = 3, str(exc)
    except OSError as exc:  # missing or unreadable input, config or model file
        code, message = 3, f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
    # One line, whatever bytes of a damaged file the message quotes.
    message = "".join(c if c.isprintable() else repr(c)[1:-1] for c in message)
    print(f"error: {message}", file=sys.stderr)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
