#!/usr/bin/env python3
"""Overfitting threshold as a function of sample size.

For each (n, seed) cell a fresh portfolio is generated, the chosen family
is scanned along its capacity ladder, and the detected threshold (relative
training error at the validation upturn) is recorded.  Prints a per-size
summary; larger samples should tolerate more capacity before overfitting,
i.e. the mean threshold should drift down.  The cells run on up to one
worker process per available CPU; results stay in cell order, and every
threshold is bit-identical to an in-process run (``taskset -c 0`` gives one).

    python3 scripts/learning_curve.py --sizes 100 200 400 800 --seeds 0 1 2 3 4
"""

import argparse
from pathlib import Path

from pricelab.ann import TrainingConfig
from pricelab.dataset import GeneratorParams
from pricelab.evaluation import AnnFamily, GamFamily, learning_curve, learning_curve_csv


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--family", choices=("ann", "gam"), default="ann")
    p.add_argument("--sizes", type=int, nargs="+", default=[100, 200, 400, 800])
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    p.add_argument("--noise", type=float, default=1500.0)
    p.add_argument("--learning-rate", type=float, default=0.4,
                   help="scan learning rate (ann family only)")
    p.add_argument("--max-epochs", type=int, default=16000,
                   help="top of the ann epoch ladder")
    p.add_argument("--out", type=Path, default=None, help="write per-cell CSV")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.family == "ann":
        family = AnnFamily(training=TrainingConfig(learning_rate=args.learning_rate))
        steps = tuple(range(100, args.max_epochs + 1, 100))
    else:
        family = GamFamily()
        steps = None  # default penalty ladder
    params = GeneratorParams(noise_scale=args.noise, noise_outlier_rate=0.0)
    curve = learning_curve(
        family, params, sizes=args.sizes, seeds=args.seeds, steps=steps,
    )
    print(f"{'n':>6}  {'mean threshold':>14}  {'std err':>8}  {'found':>5}")
    for n, mean, se, count in curve.mean_thresholds():
        if mean is None:
            print(f"{n:>6}  {'--':>14}  {'--':>8}  {count:>2}/{len(args.seeds)}")
        else:
            print(f"{n:>6}  {mean:>14.4f}  {se:>8.4f}  {count:>2}/{len(args.seeds)}")
    if args.out is not None:
        args.out.write_text(learning_curve_csv(curve))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
