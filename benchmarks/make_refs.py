"""Remake the reference checkpoints the benchmark reads.

    python3 benchmarks/make_refs.py

Writes ``benchmarks/ref/float.lgn`` (the small CNN float-trained by
``lognet.train``) and ``benchmarks/ref/calibrated.lgn`` (the same net after
``lognet calibrate`` at 4-bit log activations).  Everything is derived from
the fixed seeds below, so the files are reproducible; they are committed so
that a change to training or calibration does not change what the ``infer``
and ``calibrate`` workloads measure.
"""

from __future__ import annotations

import os
import sys
import tempfile

import common  # must come before numpy: pins threads, puts src/ on the path

import numpy as np

from lognet import cli, io, train
from lognet.datasets import make_pattern_dataset

REF_DIR = os.path.join(common.BENCH_DIR, "ref")
FLOAT_CKPT = os.path.join(REF_DIR, "float.lgn")
CALIBRATED_CKPT = os.path.join(REF_DIR, "calibrated.lgn")

TRAIN_SEED = 7        # sample draw of the reference training set
TRAIN_N = 4000
INIT_SEED = 0         # weight init and shuffling of the reference net
EPOCHS = 4
CALIB_SEED = 8        # sample draw of the calibration images
CALIB_SAMPLES = 100


def make() -> None:
    os.makedirs(REF_DIR, exist_ok=True)
    x, y = make_pattern_dataset(TRAIN_N, seed=TRAIN_SEED,
                                template_seed=common.TEMPLATE_SEED)
    cfg = train.TrainConfig(
        optimizer=train.OptimizerSpec("sgd_momentum", lr=0.03, momentum=0.9),
        batch_size=50, epochs=EPOCHS, seed=INIT_SEED)
    graph = train.build_small_cnn((1, common.SIZE, common.SIZE), (8, 16), 64,
                                  common.CLASSES)
    state = train.init_state(graph, cfg)
    state, hist = train.fit(state, cfg, (x.astype(np.float64), y))
    io.write_model(FLOAT_CKPT, train.sync_graph_weights(state, cfg))
    print(f"float net: {EPOCHS} epochs, final train acc {hist[-1]['train_acc']:.4f}")

    cx, _ = make_pattern_dataset(CALIB_SAMPLES, seed=CALIB_SEED,
                                 template_seed=common.TEMPLATE_SEED)
    with tempfile.TemporaryDirectory(dir=REF_DIR) as tmp:
        images = os.path.join(tmp, "images.idx")
        io.write_idx(images, cx)
        rc = cli.main(["calibrate", FLOAT_CKPT, images, "--bitwidth", "4",
                       "--samples", str(CALIB_SAMPLES),
                       "--out", CALIBRATED_CKPT,
                       "--report", os.path.join(tmp, "report.csv")])
    if rc != 0:
        sys.exit(f"lognet calibrate exited {rc}")
    print(f"wrote {FLOAT_CKPT} and {CALIBRATED_CKPT}")


if __name__ == "__main__":
    make()
