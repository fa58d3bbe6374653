"""Command line interface.

Subcommands: synth (dataset generation), train, segment, eval, distfit
(exponential MLE per region), gradcheck. Exit codes: 0 success, 1 validation
error, 2 I/O error. All randomness is controlled by --seed.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import data_io, metrics, model as M, speckle, trainer
from .rng import Rng


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dgnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic SAR scene dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oil-contrast", type=float, default=5.0)
    p.add_argument("--lookalike-prob", type=float, default=0.0)
    p.add_argument("--lookalike-contrast", type=float, default=2.0)

    p = sub.add_parser("train", help="train a segmentation model")
    p.add_argument("--data", required=True, help="dataset manifest path")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--curve", default=None, help="learning-curve CSV path")
    p.add_argument("--epochs", type=int, default=160)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--family", choices=M.FAMILIES, default="exp")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=64, help="model input size")
    p.add_argument("--latent", type=int, default=128)

    p = sub.add_parser("segment", help="segment images with a trained model")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="manifest path or single PGM image")
    p.add_argument("--out", required=True, help="output directory for mask PGMs")
    p.add_argument("--threshold", type=float, default=0.5)

    p = sub.add_parser("eval", help="score predicted masks against ground truth")
    p.add_argument("--gt", required=True, help="directory of ground-truth mask PGMs")
    p.add_argument("--pred", required=True, help="directory of predicted mask PGMs")
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--summary", default=None, help="distribution summary CSV path")

    p = sub.add_parser("distfit", help="exponential MLE fit per mask region")
    p.add_argument("--data", required=True, help="intensity PGM image")
    p.add_argument("--mask", default=None, help="optional binary mask PGM")

    p = sub.add_parser("gradcheck", help="finite-difference check of the training loss")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-3)
    return parser


def _cmd_synth(args) -> int:
    config = speckle.SceneConfig(
        size=args.size, oil_contrast=args.oil_contrast,
        lookalike_prob=args.lookalike_prob, lookalike_contrast=args.lookalike_contrast,
        seed=args.seed)
    manifest = speckle.synth_dataset(config, args.count, args.out)
    print(f"wrote {args.count} samples, manifest at {manifest}")
    return 0


def _check_output_paths(*paths) -> None:
    """Refuse a bad output path before any input is read, not after the work."""
    for path in (Path(p) for p in paths if p is not None):
        if not path.parent.is_dir():
            raise FileNotFoundError(f"no such output directory: {path.parent}")
        if path.is_dir():
            raise IsADirectoryError(f"output path is a directory: {path}")


def _check_distinct(**paths) -> None:
    """Refuse two flags that name one file, through links and relative parts,
    before either is read or written."""
    named = [(flag, Path(p)) for flag, p in paths.items() if p is not None]
    for (flag_a, a), (flag_b, b) in itertools.combinations(named, 2):
        try:
            same = a.samefile(b)
        except OSError:             # one of them does not exist (yet)
            same = a.resolve() == b.resolve()
        if same:
            raise ValueError(f"--{flag_a} {a} and --{flag_b} {b} are the same file")


def _cmd_train(args) -> int:
    _check_distinct(data=args.data, out=args.out, curve=args.curve)
    _check_output_paths(args.out, args.curve)
    model_config = M.ModelConfig(input_size=args.size, latent_dim=args.latent,
                                 family=args.family)
    train_config = trainer.TrainConfig(
        epochs=args.epochs, batch_size=args.batch, learning_rate=args.lr,
        beta=args.beta, family=args.family, seed=args.seed,
        curve_path=args.curve, checkpoint_path=args.out)
    dataset = data_io.load_dataset(args.data, input_size=args.size)
    _, records = trainer.train(dataset, model_config, train_config)
    print(f"trained {args.epochs} epochs on {len(dataset)} samples; "
          f"final loss {records[-1].loss:.6g} (kl {records[-1].kl:.6g}, "
          f"nll {records[-1].nll:.6g}); checkpoint at {args.out}")
    return 0


# Images per network run in `dgnet segment`. Per image, stacks of 4 to 10
# forward in about 60 % of a single image's time on one core, and stacks of
# 20 or 40 are slower again. A mask's bytes do not depend on its group.
_SEGMENT_BATCH = 8


def _cmd_segment(args) -> int:
    """Each image is resampled to the model's size, and its mask back to the
    image's own size, so masks line up with source-size ground truth. Images
    are read, segmented and written in groups of `_SEGMENT_BATCH`."""
    if not 0.0 <= args.threshold <= 1.0:
        raise ValueError(f"threshold must be a finite value in [0, 1], got {args.threshold}")
    net = data_io.load_checkpoint(args.model)
    data_path = Path(args.data)
    if data_path.suffix.lower() == ".pgm":
        paths = [data_path]
    else:
        paths = [image for image, _ in data_io.read_manifest(data_path)]
    sources = {}
    for path in paths:
        if path.name in sources:
            raise ValueError(f"{sources[path.name]} and {path} would both write the mask "
                             f"{path.name}")
        sources[path.name] = path
        mask_path = Path(args.out, path.name)
        # A mask path that does not exist yet cannot be an existing input.
        if mask_path.exists() and mask_path.samefile(path):
            raise ValueError(f"the mask {mask_path} would overwrite its input image {path}")
    out_dir = data_io.ensure_dir(args.out)
    size = net.config.input_size
    for start in range(0, len(paths), _SEGMENT_BATCH):
        group = paths[start:start + _SEGMENT_BATCH]
        originals = [data_io.read_pgm(path) for path in group]
        images = np.stack([data_io.resample_bilinear(o, size, size) for o in originals])
        _, masks = trainer.segment(net, images, threshold=args.threshold)
        for path, source, mask in zip(group, originals, masks):
            mask = data_io.resample_nearest(mask, *source.shape)
            data_io.write_pgm(mask.astype(np.float64), out_dir / path.name, bit_depth=8)
    print(f"segmented {len(paths)} image(s) into {out_dir}")
    return 0


def _paired_masks(gt_dir, pred_dir):
    gt_dir, pred_dir = Path(gt_dir), Path(pred_dir)
    if not gt_dir.is_dir():
        raise FileNotFoundError(f"no such ground-truth directory: {gt_dir}")
    names = sorted(p.name for p in gt_dir.glob("*.pgm"))
    if not names:
        raise data_io.FormatError(f"no PGM masks found in {gt_dir}")
    pairs = []
    for name in names:
        pred_path = pred_dir / name
        if not pred_path.exists():
            raise FileNotFoundError(f"missing prediction {pred_path}")
        gt = (data_io.read_pgm(gt_dir / name) >= 0.5).astype(np.uint8)
        pred = (data_io.read_pgm(pred_path) >= 0.5).astype(np.uint8)
        if gt.shape != pred.shape:
            raise ValueError(f"shape mismatch in {name}: gt {gt.shape} vs pred {pred.shape}")
        pairs.append((gt, pred))
    return names, pairs


def _cmd_eval(args) -> int:
    _check_distinct(out=args.out, summary=args.summary)
    _check_output_paths(args.out, args.summary)
    names, pairs = _paired_masks(args.gt, args.pred)
    reports, pooled, summary = metrics.batch_eval(pairs)
    Path(args.out).write_text(metrics.report_csv_text(names, reports, pooled))
    if args.summary:
        Path(args.summary).write_text(metrics.summary_csv_text(summary))
    print(f"pooled: accuracy {pooled.accuracy:.4f} iou {pooled.iou:.4f} "
          f"f1 {pooled.f1:.4f} over {len(pairs)} image(s); report at {args.out}")
    return 0


def _cmd_distfit(args) -> int:
    image = data_io.read_pgm(args.data)
    regions = [("all", np.ones(image.shape, dtype=bool))]
    if args.mask:
        mask = data_io.read_pgm(args.mask) >= 0.5
        if mask.shape != image.shape:
            raise ValueError(f"mask shape {mask.shape} does not match image {image.shape}")
        regions = [("oil", mask), ("background", ~mask)]
    for name, region in regions:
        if not region.any():
            print(f"{name}: empty region, skipped")
            continue
        fit = speckle.exp_fit_mle(image[region])
        print(f"{name}: rate {fit.rate:.6g} mean {fit.mean:.6g} "
              f"pixels {int(region.sum())}")
    return 0


def _cmd_gradcheck(args) -> int:
    if not 0.0 < args.tolerance < math.inf:
        raise ValueError(f"tolerance must be a finite positive value, got {args.tolerance}")
    config = M.ModelConfig(input_size=16, channels=(4, 8, 8, 16), latent_dim=8,
                           family="exp")
    net = M.DGNet(config, seed=args.seed)
    rng = Rng(args.seed)
    image = rng.split("image").uniform((1, 1, 16, 16))
    mask = (rng.split("mask").uniform((1, 1, 16, 16)) < 0.3).astype(np.float64)
    err = M.grad_check(net, image, mask, rng=rng)
    print(f"max relative gradient error: {err:.3e} (tolerance {args.tolerance:g})")
    return 0 if err < args.tolerance else 1


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "segment": _cmd_segment,
    "eval": _cmd_eval,
    "distfit": _cmd_distfit,
    "gradcheck": _cmd_gradcheck,
}


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # The engine raises NonFiniteError on any non-finite op output, so
        # numpy's overflow warnings would only repeat that one-line error.
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (ValueError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli())


if __name__ == "__main__":
    main()
