"""The benchmark's workloads.

train-b1-exp and train-b8-gauss run the acceptance protocol through the
library: generate the scenes, train on 200 of them, segment the 40 held-out
scenes and write their masks as PGM, then score them from the files.
cli-pipeline runs train, segment and eval through `dgnet_lab.cli.cli(argv)`,
the function behind `dgnet`, on datasets written during set-up. A round is one
such pass; every round of a run repeats the same work on the same inputs, so
its outputs must repeat byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import scenes
from dgnet_lab import cli, data_io, metrics, trainer
from dgnet_lab import model as M

TRAIN_SCENES = 200
HELDOUT_SCENES = 40
# Held-out scenes whose probability maps are compared with the float64 reference.
REFERENCE_IMAGES = 6


class Clock:
    """Wall time of each named stage; a stage is also a span when traced."""

    def __init__(self, tracer=None):
        self.times = defaultdict(list)
        self.tracer = tracer

    @contextlib.contextmanager
    def stage(self, name):
        span = self.tracer.begin(f"stage.{name}") if self.tracer else None
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[name].append(time.perf_counter() - t0)
            if span is not None:
                self.tracer.end(span)


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _digest(arrays) -> str:
    """sha256 over the bytes of a sequence of arrays, in order."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def check_scenes(seed, generated) -> None:
    masks = [m for _, m in generated.pairs]
    config = scenes.scene_config(seed)
    checks.check_mask_fractions(masks, config.mask_fraction_bounds)
    checks.check_contrast(generated.raw, masks, generated.lookalike, config.oil_contrast)


def _fresh_dir(path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass
class Round:
    curve: str                  # learning-curve CSV text
    checkpoint_sha: str
    masks: list = field(default_factory=list)
    probs: list = field(default_factory=list)
    pass_shas: list = field(default_factory=list)  # digest of each segment pass's masks
    pooled: object = None       # metrics.MetricsReport
    report: str = ""            # eval report CSV text (cli-pipeline)


class TrainWorkload:
    """Library training on the acceptance protocol's scenes, then held-out scoring.

    A round trains, segments the held-out scenes SEGMENT_PASSES times (every
    pass must give the same masks; the passes give segment throughput a
    window of seconds rather than a fifth of one) and scores the last pass
    from its PGM files.
    """

    SEGMENT_PASSES = 10

    def __init__(self, seed, work, batch, family, epochs):
        self.seed, self.work = seed, Path(work)
        self.batch, self.family, self.epochs = batch, family, epochs
        self.beta = 1.0
        self.ops_per_round = (epochs * -(-TRAIN_SCENES // batch)
                              + self.SEGMENT_PASSES * HELDOUT_SCENES)

    def prepare(self, clock) -> None:
        _fresh_dir(self.work)
        with clock.stage("synth"):
            self.scenes = scenes.bench_scenes(self.seed, TRAIN_SCENES + HELDOUT_SCENES)
        self.train, self.heldout = self.scenes[:TRAIN_SCENES], self.scenes[TRAIN_SCENES:]
        gt_dir = _fresh_dir(self.work / "gt")
        lines = []
        for i, (_, mask) in enumerate(self.heldout.pairs):
            data_io.write_pgm(mask.astype(np.float64), gt_dir / f"{i:05d}.pgm", bit_depth=8)
            lines.append(f"pred/{i:05d}.pgm\tgt/{i:05d}.pgm\n")
        # load_dataset reads (prediction, ground truth) pairs through this manifest.
        self.scored = self.work / "scored.tsv"
        self.scored.write_text("".join(lines))

    def run_round(self, clock) -> Round:
        curve, ckpt = self.work / "curve.csv", self.work / "model.dgnt"
        with clock.stage("train"):
            self.model, _ = trainer.train(
                self.train.pairs, M.ModelConfig(input_size=scenes.SIZE, family=self.family),
                trainer.TrainConfig(epochs=self.epochs, batch_size=self.batch,
                                    learning_rate=1e-4, beta=self.beta, family=self.family,
                                    seed=self.seed, curve_path=str(curve),
                                    checkpoint_path=str(ckpt)))
        out = Round(curve=curve.read_text(), checkpoint_sha=_sha(ckpt))
        pred_dir = _fresh_dir(self.work / "pred")
        with clock.stage("segment"):
            for _ in range(self.SEGMENT_PASSES):
                out.masks, out.probs = [], []
                for i, (image, _) in enumerate(self.heldout.pairs):
                    prob, mask = trainer.segment(self.model, image)
                    data_io.write_pgm(mask.astype(np.float64), pred_dir / f"{i:05d}.pgm",
                                      bit_depth=8)
                    out.masks.append(mask)
                    out.probs.append(prob)
                out.pass_shas.append(_digest(out.masks))
        with clock.stage("eval"):
            pairs = data_io.load_dataset(self.scored)
            _, out.pooled, _ = metrics.batch_eval(
                [(gt, (pred >= 0.5).astype(np.uint8)) for pred, gt in pairs])
        return out

    def check(self, rounds) -> None:
        last = rounds[-1]
        for r in rounds:
            checks.require(len(set(r.pass_shas)) == 1,
                           "segmenting the same scenes twice gave different masks")
            checks.require(r.curve == last.curve and r.checkpoint_sha == last.checkpoint_sha
                           and r.pass_shas == last.pass_shas,
                           "rounds with the same seed gave different outputs")
        checks.check_curve(checks.parse_curve_csv(last.curve), self.beta)
        loaded = checks.check_checkpoint(data_io, self.work / "model.dgnt",
                                         self.work / "resaved.dgnt",
                                         expected=data_io.checkpoint_bytes(self.model))
        images = [image for image, _ in self.heldout.pairs]
        checks.check_same_masks([trainer.segment(loaded, im)[1] for im in images],
                                last.masks, "masks of the reloaded checkpoint")
        checks.check_reference(loaded.state_tensors(), loaded.config,
                               images[:REFERENCE_IMAGES], last.probs[:REFERENCE_IMAGES])
        p = last.pooled
        checks.check_confusion([gt for _, gt in self.heldout.pairs], last.masks,
                               (p.counts.tp, p.counts.fp, p.counts.fn, p.counts.tn),
                               p.accuracy, p.iou, p.f1)
        check_scenes(self.seed, self.scenes)

    def end_to_end(self, clock, rounds) -> dict:
        t = clock.times
        n = len(rounds)
        return {
            "train_images_per_s": n * self.epochs * TRAIN_SCENES / sum(t["train"]),
            "segment_images_per_s": n * self.SEGMENT_PASSES * HELDOUT_SCENES / sum(t["segment"]),
            "heldout_pixel_accuracy": rounds[-1].pooled.accuracy,
            "final_train_loss": checks.parse_curve_csv(rounds[-1].curve)[-1][1],
        }


class CliWorkload:
    """train -> segment -> eval through dgnet_lab.cli.cli(argv), on datasets
    written in the layout of `dgnet synth` during set-up."""

    SEGMENT_SCENES = 500
    EPOCHS = 5
    BATCH = 8

    def __init__(self, seed, work):
        self.seed, self.work = seed, Path(work)
        self.beta = 1.0
        steps = self.EPOCHS * -(-TRAIN_SCENES // self.BATCH)
        self.ops_per_round = 3 + steps + self.SEGMENT_SCENES    # 3 commands

    def prepare(self, clock) -> None:
        w = _fresh_dir(self.work)
        with clock.stage("synth"):
            self.scenes = scenes.bench_scenes(self.seed, TRAIN_SCENES + self.SEGMENT_SCENES)
            scenes.write_dataset(self.scenes.pairs[:TRAIN_SCENES], w / "train")
            scenes.write_dataset(self.scenes.pairs[TRAIN_SCENES:], w / "large")
        self.commands = [
            ["train", "--data", str(w / "train" / "manifest.tsv"), "--out", str(w / "model.dgnt"),
             "--curve", str(w / "curve.csv"), "--epochs", str(self.EPOCHS),
             "--batch", str(self.BATCH), "--beta", str(self.beta), "--family", "exp",
             "--seed", str(self.seed), "--size", str(scenes.SIZE)],
            ["segment", "--model", str(w / "model.dgnt"),
             "--data", str(w / "large" / "manifest.tsv"), "--out", str(w / "pred")],
            ["eval", "--gt", str(w / "large" / "masks"), "--pred", str(w / "pred"),
             "--out", str(w / "report.csv"), "--summary", str(w / "summary.csv")],
        ]

    def run_round(self, clock) -> Round:
        shutil.rmtree(self.work / "pred", ignore_errors=True)
        for argv in self.commands:
            with clock.stage(argv[0]), contextlib.redirect_stdout(io.StringIO()):
                code = cli.cli(argv)
            if code != 0:
                raise RuntimeError(f"dgnet {argv[0]} exited with code {code}")
        return Round(curve=(self.work / "curve.csv").read_text(),
                     checkpoint_sha=_sha(self.work / "model.dgnt"),
                     report=(self.work / "report.csv").read_text())

    @staticmethod
    def _report_rows(text):
        """{image: ((tp, fp, fn, tn), [accuracy, precision, recall, f1, iou, rfr])}"""
        rows = [line.split(",") for line in text.splitlines()[1:]]
        return {r[0]: (tuple(int(v) for v in r[1:5]), [float(v) for v in r[5:]]) for r in rows}

    def check(self, rounds) -> None:
        last = rounds[-1]
        for r in rounds[:-1]:
            checks.require((r.curve, r.checkpoint_sha, r.report)
                           == (last.curve, last.checkpoint_sha, last.report),
                           "rounds with the same seed gave different outputs")
        checks.check_curve(checks.parse_curve_csv(last.curve), self.beta)
        loaded = checks.check_checkpoint(data_io, self.work / "model.dgnt",
                                         self.work / "resaved.dgnt")

        large = self.work / "large"
        names = [f"{i:05d}.pgm" for i in range(self.SEGMENT_SCENES)]
        gts = [checks.read_mask_pgm(large / "masks" / n) for n in names]
        preds = [checks.read_mask_pgm(self.work / "pred" / n) for n in names]
        images = [data_io.read_pgm(large / "images" / n) for n in names[:REFERENCE_IMAGES]]
        segmented = [trainer.segment(loaded, im) for im in images]
        checks.check_same_masks([m for _, m in segmented], preds[:REFERENCE_IMAGES],
                                "masks of the reloaded checkpoint")
        checks.check_reference(loaded.state_tensors(), loaded.config, images,
                               [p for p, _ in segmented])

        rows = self._report_rows(last.report)
        checks.require(len(rows) == self.SEGMENT_SCENES + 1,
                       f"eval report has {len(rows)} rows, expected {self.SEGMENT_SCENES + 1}")
        counts, (acc, _, _, f1, iou, _) = rows["POOLED"]
        checks.check_confusion(gts, preds, counts, acc, iou, f1)
        _, pooled, _ = metrics.batch_eval(list(zip(gts, preds)))
        c = pooled.counts
        checks.check_confusion(gts, preds, (c.tp, c.fp, c.fn, c.tn), pooled.accuracy,
                               pooled.iou, pooled.f1)
        for name, (_, (_, _, _, f1, iou, _)) in rows.items():
            checks.require(math.isclose(f1, 2.0 * iou / (1.0 + iou),
                                        rel_tol=checks.RATE_REL_TOL, abs_tol=1e-12),
                           f"report row {name}: f1 != 2*iou/(1+iou)")
        check_scenes(self.seed, self.scenes)

    def end_to_end(self, clock, rounds) -> dict:
        t = clock.times
        n = len(rounds)
        return {
            "train_images_per_s": n * self.EPOCHS * TRAIN_SCENES / sum(t["train"]),
            "segment_images_per_s": n * self.SEGMENT_SCENES / sum(t["segment"]),
            "heldout_pixel_accuracy": self._report_rows(rounds[-1].report)["POOLED"][1][0],
            "final_train_loss": checks.parse_curve_csv(rounds[-1].curve)[-1][1],
        }


WORKLOADS = {
    "train-b1-exp": lambda seed, work: TrainWorkload(seed, work, batch=1, family="exp", epochs=2),
    "train-b8-gauss": lambda seed, work: TrainWorkload(seed, work, batch=8, family="gauss",
                                                       epochs=6),
    "cli-pipeline": CliWorkload,
}
