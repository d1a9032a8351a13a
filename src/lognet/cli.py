"""Command-line frontend: datasets, calibration, sweeps, training, inference.

Exit codes: 0 success, 1 runtime/numeric failure, 2 usage or parse failure
(an unreadable or unwritable path included); ``main`` maps every error to
its code.  All emitted CSVs are RFC 4180 (CRLF, header row first).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from dataclasses import replace
from functools import lru_cache

import numpy as np

from . import calib, io, nn, train
from .datasets import make_pattern_dataset
from .lognum import (
    KIND_LOG,
    ROUND_FLOOR,
    ROUND_NEAREST,
    AccumulatorOverflow,
    ConfigError,
    DomainError,
    QuantizerConfig,
)
from .nn import CONV, FC, LINQUANT, LOGQUANT, ModelGraph, forward
from .tensor import quantize_tensor


def _fmt(value) -> str:
    """A CSV field: numpy scalars as the Python float or int they hold,
    floats in their shortest round-trip form and NaN as an empty field."""
    if isinstance(value, (float, np.floating)):
        return "" if math.isnan(value) else repr(float(value))
    if isinstance(value, np.integer):
        value = int(value)
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)  # RFC 4180 line endings
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def load_images(path) -> np.ndarray:
    arr = io.read_idx(path)
    if arr.ndim == 3:
        arr = arr[:, None, :, :]
    if arr.ndim != 4:
        raise io.FileFormatError(0, f"expected rank 3 or 4 image data, got rank {arr.ndim}")
    if arr.dtype == np.uint8:
        arr = arr.astype(np.float32) / 255.0
    return arr.astype(np.float32)


def load_labels(path, count: int | None = None) -> np.ndarray:
    arr = io.read_idx(path)
    if arr.ndim != 1:
        raise io.FileFormatError(0, f"labels must be rank 1, got rank {arr.ndim}")
    with np.errstate(invalid="ignore"):  # a float32 past int64 casts to a negative
        labels = arr.astype(np.int64)
    bad = np.flatnonzero((labels < 0) | (labels != arr))
    if bad.size:  # rank 1: an 8-byte header
        i = int(bad[0])
        raise io.FileFormatError(8 + arr.itemsize * i,
                                 f"label {i} is {arr[i]!s}, not a whole number >= 0")
    if count is not None and len(labels) != count:
        raise io.FileFormatError(0, f"{len(labels)} labels for {count} samples")
    return labels


def _usage_fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# evaluation helpers
# ---------------------------------------------------------------------------


def predict_scores(graph: ModelGraph, images: np.ndarray, mode: str, accum: str,
                   batch_size: int = 256) -> np.ndarray:
    """``forward`` on slices of ``batch_size`` images, in order, joined into
    one (samples, classes) array; zero images make one call on the empty
    slice.  A net whose output is not class scores raises ``ConfigError``."""
    scores = np.concatenate([forward(graph, images[lo:lo + batch_size], mode, accum)
                             for lo in range(0, max(len(images), 1), batch_size)])
    if scores.ndim != 2:
        raise ConfigError(f"the net outputs {scores.shape[1:]} per image, not class scores")
    return scores


def topk_accuracy(scores: np.ndarray, labels: np.ndarray, k: int) -> float:
    if len(labels) == 0:
        return math.nan
    k = min(k, scores.shape[1])
    top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return float((top == labels[:, None]).any(axis=1).mean())


def _attach_weight_qconfig(graph: ModelGraph, i: int,
                           template: QuantizerConfig) -> QuantizerConfig:
    """Give layer ``i`` ``template`` at its weights' calibrated fsr; returns
    that config."""
    cfg = replace(template, fsr=calib.calibrate_fsr(graph.weight_array(i), template))
    graph.layers[i] = replace(graph.layers[i], qconfig=cfg)
    return cfg


def ensure_weight_qconfigs(graph: ModelGraph, bits: int, base_frac_bits: int,
                           rounding: str) -> None:
    """Attach calibrated weight quantizers to conv/fc layers missing one."""
    template = QuantizerConfig(KIND_LOG, bits, True, 0, base_frac_bits, rounding)
    for i, layer in enumerate(graph.layers):
        if layer.kind in (CONV, FC) and layer.qconfig is None:
            _attach_weight_qconfig(graph, i, template)


def _parse_range(text: str) -> range:
    try:
        lo, hi = (int(p) for p in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _int_at_least(lo: int):
    """The argparse type of decimal integers >= ``lo`` (0 or 1)."""
    what = ("non-negative", "positive")[lo]

    def parse(text: str) -> int:
        if not text.isdigit() or int(text) < lo:
            raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}")
        return int(text)
    return parse


def _non_negative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    if args.classes > 256:
        return _usage_fail(f"--classes must be at most 256 (labels are written as uint8), "
                           f"got {args.classes}")
    os.makedirs(args.out, exist_ok=True)
    for split, n, seed in (("train", args.n, args.seed), ("test", args.test_n, args.seed + 1)):
        images, labels = make_pattern_dataset(n, classes=args.classes, size=args.size,
                                              seed=seed, noise=args.noise,
                                              template_seed=args.seed)
        io.write_idx(os.path.join(args.out, f"{split}-images.idx"), images)
        io.write_idx(os.path.join(args.out, f"{split}-labels.idx"),
                     labels.astype(np.uint8))
    print(f"wrote {args.n}+{args.test_n} samples, {args.classes} classes, "
          f"{args.size}x{args.size} -> {args.out}")
    return 0


def _capture(args, what: str) -> tuple[ModelGraph, dict[int, np.ndarray]]:
    """The model ``args`` names and its quantizer layers' inputs over the
    first ``args.samples`` images; refuses an empty sample and a net without
    quantizer layers, each message naming the command's work, ``what``."""
    graph = io.read_model(args.model)
    images = load_images(args.data)
    if len(images) < 1:
        raise DomainError(f"cannot {what} an empty sample")
    captured = nn.collect_quantizer_inputs(graph, images[:args.samples])
    if not captured:
        raise ConfigError(f"model has no quantizer layers to {what}")
    return graph, captured


def cmd_calibrate(args) -> int:
    graph, captured = _capture(args, "calibrate")
    # calibrate each layer under its own quantizer at the requested width
    configs = {i: replace(graph.layers[i].qconfig, bitwidth=args.bitwidth,
                          rounding=args.rounding) for i in sorted(captured)}
    layers = calib.calibrate_layers(captured, configs, graph.fsr, args.fsr_grid)
    for lc in layers:
        i = lc.layer_index
        graph.layers[i] = replace(graph.layers[i], qconfig=configs[i], fsr_offset=lc.fsr_offset)
    io.write_model(args.out, graph)
    write_csv(args.report, ["layer", "fsr", "l1_error", "chosen"],
              [(lc.layer_index, f, err, int(f == lc.chosen_fsr))
               for lc in layers for f, err in lc.profile])
    print(f"global fsr: {graph.fsr}")
    for lc in layers:
        print(f"layer {lc.layer_index}: fsr {lc.chosen_fsr} (offset {lc.fsr_offset:+d}), "
              f"L1 log {lc.l1_log:.6g}, L1 linear {lc.l1_linear:.6g}")
    print(f"calibrated model -> {args.out}; report -> {args.report}")
    return 0


def cmd_sweep(args) -> int:
    graph = io.read_model(args.model)
    images = load_images(args.data)
    labels = load_labels(args.labels, len(images))
    if args.mode.startswith("method2"):
        ensure_weight_qconfigs(graph, args.weight_bits, 0, ROUND_NEAREST)
    rows = []
    for bw in args.bitwidths:
        g = ModelGraph(layers=list(graph.layers), fsr=graph.fsr,
                       weights=dict(graph.weights))
        for i, layer in enumerate(g.layers):
            if layer.kind in (LOGQUANT, LINQUANT):
                g.layers[i] = replace(layer, qconfig=replace(layer.qconfig, bitwidth=bw))
        for fsr in args.fsr_range:
            g.fsr = fsr
            scores = predict_scores(g, images, args.mode, args.accum)
            rows.append((bw, fsr, topk_accuracy(scores, labels, 1),
                         topk_accuracy(scores, labels, 5)))
    write_csv(args.out, ["bitwidth", "fsr", "top1", "top5"], rows)
    print(f"swept {len(rows)} grid points -> {args.out}")
    return 0


def cmd_infer(args) -> int:
    graph = io.read_model(args.model)
    images = load_images(args.data)
    if args.mode.startswith("method2"):
        ensure_weight_qconfigs(graph, args.weight_bits, 0, ROUND_NEAREST)
    t0 = time.perf_counter()
    scores = predict_scores(graph, images, args.mode, args.accum)
    timings = {args.mode: time.perf_counter() - t0}
    write_csv(args.out, ["index", "prediction"], list(enumerate(scores.argmax(axis=1))))
    if args.mode != "float32":
        # a float32 reference timing; its failure does not fail the command
        t0 = time.perf_counter()
        try:
            predict_scores(graph, images, "float32", "linear")
            timings["float32"] = time.perf_counter() - t0
        except ArithmeticError as e:
            print(f"float32 timing pass failed: {e}", file=sys.stderr)
    for mode, dt in timings.items():
        rate = len(images) / dt if dt > 0 else math.nan
        print(f"{mode}: {len(images)} samples in {dt:.3f}s ({rate:.1f}/s)")
    print(f"predictions -> {args.out}")
    return 0


def cmd_quant_analyze(args) -> int:
    graph, captured = _capture(args, "analyze")
    rows = []
    for idx in sorted(captured):
        cfg = replace(graph.act_config(graph.layers[idx]), bitwidth=args.bitwidth)
        errs = calib.quant_errors(captured[idx], cfg)
        edges, counts = calib.signed_error_histogram(errs, args.bins)
        edges = edges.tolist()
        # float(np.abs(errs).mean()) is calib.quant_error_l1 of the sample
        l1_log, l1_lin = calib.log_linear_l1(captured[idx], cfg, float(np.abs(errs).mean()))
        print(f"layer {idx}: L1 log {l1_log:.6g} vs linear {l1_lin:.6g} at fsr {cfg.fsr}")
        for b in range(len(counts)):
            rows.append((idx, edges[b], edges[b + 1], int(counts[b])))
    write_csv(args.out, ["layer", "bin_left", "bin_right", "count"], rows)
    print(f"histograms -> {args.out}")
    return 0


def cmd_pack(args) -> int:
    graph = io.read_model(args.model)
    fb = 1 if args.base == "sqrt2" else 0
    rounding = ROUND_FLOOR if args.rounding == "floor" else ROUND_NEAREST
    template = QuantizerConfig(KIND_LOG, args.bits, True, 0, fb, rounding)
    n_packed = 0
    for i, layer in enumerate(graph.layers):
        if layer.kind in (CONV, FC) and not graph.weights[i].is_quantized:
            cfg = _attach_weight_qconfig(graph, i, template)
            graph.weights[i] = quantize_tensor(graph.weights[i], cfg)
            n_packed += 1
    io.write_model(args.out, graph)
    before = os.path.getsize(args.model)
    after = os.path.getsize(args.out)
    print(f"packed {n_packed} weight tensors at {args.bits}b "
          f"({before} -> {after} bytes, {before / after:.2f}x smaller)")
    return 0


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

_TRAIN_DEFAULTS = {
    "test_images": "", "test_labels": "",
    "conv_channels": "8,16", "fc_units": "64",
    "act_bits": "4", "act_kind": "log", "act_fsr": "3",
    "weight_bits": "5", "weight_kind": "log",
    "grad_bits": "5",
    "base": "2", "rounding": "nearest",
    "optimizer": "sgd", "lr": "0.02", "momentum": "0.9",
    "beta1": "0.9", "beta2": "0.999", "eps": "1e-8",
    "lr_decay_epochs": "0", "lr_decay_factor": "0.1",
    "batch_size": "100", "epochs": "10", "seed": "0",
    "grad_fsr_floor": "-20", "checkpoint_every": "1",
}
_TRAIN_REQUIRED = ("train_images", "train_labels", "out_model", "out_metrics")


def parse_train_config(path) -> dict:
    raw = dict(_TRAIN_DEFAULTS)
    with open(path) as f:
        lines = f.readlines()
    for ln, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key=value, got {line!r}")
        key, value = (p.strip() for p in line.split("=", 1))
        if key not in _TRAIN_DEFAULTS and key not in _TRAIN_REQUIRED:
            raise ConfigError(f"unknown config key '{key}'")
        raw[key] = value
    for key in _TRAIN_REQUIRED:
        if key not in raw:
            raise ConfigError(f"missing required config key '{key}'")
    return raw


def _cfg_int(raw, key) -> int:
    try:
        return int(raw[key])
    except ValueError:
        raise ConfigError(f"key '{key}': expected an integer, got {raw[key]!r}")


def _cfg_positive_int(raw, key, value: int | None = None) -> int:
    """``raw[key]`` as an integer >= 1; ``value`` is one integer read from
    a key that holds several."""
    if value is None:
        value = _cfg_int(raw, key)
    if value < 1:
        raise ConfigError(f"key '{key}': expected a positive integer, got {raw[key]!r}")
    return value


def _cfg_float(raw, key) -> float:
    try:
        value = float(raw[key])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}': expected a number, got {raw[key]!r}")
    return value


def _cfg_choice(raw, key, choices) -> str:
    if raw[key] not in choices:
        raise ConfigError(f"key '{key}': expected one of {sorted(choices)}, got {raw[key]!r}")
    return raw[key]


def build_train_setup(raw: dict):
    """Config dict -> (graph, TrainConfig, datasets)."""
    fb = {"2": 0, "sqrt2": 1}[_cfg_choice(raw, "base", {"2", "sqrt2"})]
    rounding = {"nearest": ROUND_NEAREST, "floor": ROUND_FLOOR}[
        _cfg_choice(raw, "rounding", {"nearest", "floor"})]

    act_bits = _cfg_int(raw, "act_bits")
    act_kind = _cfg_choice(raw, "act_kind", {"log", "linear"})
    act_q = None
    if act_bits:
        act_q = QuantizerConfig(act_kind, act_bits, False, _cfg_int(raw, "act_fsr"),
                                0, rounding)
    weight_bits = _cfg_int(raw, "weight_bits")
    weight_kind = _cfg_choice(raw, "weight_kind", {"log", "linear"})
    weight_q = None
    if weight_bits:
        weight_q = QuantizerConfig(weight_kind, weight_bits, True, 0,
                                   fb if weight_kind == "log" else 0, rounding)
    grad_bits = _cfg_int(raw, "grad_bits")
    grad_q = None
    if grad_bits:
        grad_q = QuantizerConfig("log", grad_bits, True, 0, fb, rounding)

    opt = train.OptimizerSpec(
        kind={"sgd": "sgd_momentum", "adam": "adam"}[
            _cfg_choice(raw, "optimizer", {"sgd", "adam"})],
        lr=_cfg_float(raw, "lr"), momentum=_cfg_float(raw, "momentum"),
        beta1=_cfg_float(raw, "beta1"), beta2=_cfg_float(raw, "beta2"),
        eps=_cfg_float(raw, "eps"),
        lr_decay_epochs=_cfg_int(raw, "lr_decay_epochs"),
        lr_decay_factor=_cfg_float(raw, "lr_decay_factor"))
    cfg = train.TrainConfig(
        weight_q=weight_q, activation_q=act_q, gradient_q=grad_q, optimizer=opt,
        batch_size=_cfg_int(raw, "batch_size"), epochs=_cfg_int(raw, "epochs"),
        seed=_cfg_int(raw, "seed"), grad_fsr_floor=_cfg_int(raw, "grad_fsr_floor"))

    train_x = load_images(raw["train_images"])
    train_y = load_labels(raw["train_labels"], len(train_x))
    test = None
    if raw["test_images"]:
        test_x = load_images(raw["test_images"])
        test = (test_x.astype(np.float64), load_labels(raw["test_labels"], len(test_x)))

    channels = raw["conv_channels"].split(",")
    if len(channels) != 2:
        raise ConfigError("key 'conv_channels': expected two comma-separated integers")
    try:
        widths = [int(c) for c in channels]
    except ValueError:
        raise ConfigError(f"key 'conv_channels': {raw['conv_channels']!r}")
    c1, c2 = (_cfg_positive_int(raw, "conv_channels", w) for w in widths)
    classes = int(train_y.max()) + 1
    in_shape = train_x.shape[1:]
    # activations stay on the base-2 grid; the base option applies to the
    # weight/gradient quantizers
    graph = train.build_small_cnn(in_shape, (c1, c2), _cfg_positive_int(raw, "fc_units"),
                                  classes, act_bits or 4, rounding)
    return graph, cfg, (train_x.astype(np.float64), train_y), test


def cmd_train(args) -> int:
    raw = parse_train_config(args.config)
    checkpoint_every = _cfg_positive_int(raw, "checkpoint_every")
    graph, cfg, train_data, test_data = build_train_setup(raw)
    state = train.init_state(graph, cfg)
    initial = train.sync_graph_weights(state, cfg)
    # a net the images cannot pass through is refused before any file is written
    for images, _ in filter(None, (train_data, test_data)):
        initial.output_shapes(images.shape)
    io.write_model(raw["out_model"], initial)

    header = ["step", "epoch", "loss", "train_acc", "test_acc"]
    rows: list[tuple] = []

    def on_epoch(row):
        rows.append((row["step"], row["epoch"], row["loss"], row["train_acc"],
                     row["test_acc"]))
        if row["epoch"] % checkpoint_every == 0:
            io.write_model(raw["out_model"], train.sync_graph_weights(state, cfg))

    try:
        train.fit(state, cfg, train_data, test_data, on_epoch=on_epoch)
        io.write_model(raw["out_model"], train.sync_graph_weights(state, cfg))
    except train.TrainingDiverged as e:
        write_csv(raw["out_metrics"], header, rows)
        print(f"aborted: {e}; last good checkpoint kept at {raw['out_model']}",
              file=sys.stderr)
        return 1
    write_csv(raw["out_metrics"], header, rows)
    if rows:
        last = rows[-1]
        print(f"epoch {last[1]}: loss {last[2]:.4f} train_acc {last[3]:.4f} "
              + (f"test_acc {last[4]:.4f}" if not math.isnan(last[4]) else ""))
    print(f"checkpoint -> {raw['out_model']}; metrics -> {raw['out_metrics']}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lognet",
        description="Logarithmic data representation for neural networks")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic image dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--n", type=_int_at_least(0), default=10000)
    g.add_argument("--test-n", type=_int_at_least(0), default=2000)
    g.add_argument("--classes", type=_int_at_least(1), default=10)
    g.add_argument("--size", type=_int_at_least(1), default=12)
    g.add_argument("--noise", type=_non_negative_float, default=0.1)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=cmd_gen_data)

    c = sub.add_parser("calibrate", help="choose per-layer fsr offsets from samples")
    c.add_argument("model")
    c.add_argument("data")
    c.add_argument("--bitwidth", type=int, default=4)
    c.add_argument("--fsr-grid", type=_parse_range, default=calib.DEFAULT_FSR_GRID)
    c.add_argument("--samples", type=_int_at_least(1), default=100)
    c.add_argument("--rounding", choices=[ROUND_FLOOR, ROUND_NEAREST],
                   default=ROUND_NEAREST)
    c.add_argument("--out", required=True)
    c.add_argument("--report", required=True)
    c.set_defaults(fn=cmd_calibrate)

    s = sub.add_parser("sweep", help="accuracy vs fsr per bitwidth")
    s.add_argument("model")
    s.add_argument("data")
    s.add_argument("labels")
    s.add_argument("--mode", choices=list(nn.FORWARD_MODES), required=True)
    s.add_argument("--accum", choices=["linear", "log"], default="linear")
    s.add_argument("--bitwidths", type=_parse_int_list, default=(3, 4))
    s.add_argument("--fsr-range", type=_parse_range, required=True)
    s.add_argument("--weight-bits", type=int, default=5)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_sweep)

    t = sub.add_parser("train", help="train per the key=value config file")
    t.add_argument("config")
    t.set_defaults(fn=cmd_train)

    i = sub.add_parser("infer", help="predict classes and report timing")
    i.add_argument("model")
    i.add_argument("data")
    i.add_argument("--mode", choices=list(nn.FORWARD_MODES), default="method2_base2")
    i.add_argument("--accum", choices=["linear", "log"], default="linear")
    i.add_argument("--weight-bits", type=int, default=5)
    i.add_argument("--out", required=True)
    i.set_defaults(fn=cmd_infer)

    q = sub.add_parser("quant-analyze", help="quantization error histograms")
    q.add_argument("model")
    q.add_argument("data")
    q.add_argument("--bitwidth", type=int, default=4)
    q.add_argument("--bins", type=int, default=256)
    q.add_argument("--samples", type=_int_at_least(1), default=100)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=cmd_quant_analyze)

    k = sub.add_parser("pack", help="quantize weights and pack to true bitwidth")
    k.add_argument("model")
    k.add_argument("--bits", type=int, default=4)
    k.add_argument("--base", choices=["2", "sqrt2"], default="2")
    k.add_argument("--rounding", choices=["nearest", "floor"], default="nearest")
    k.add_argument("--out", required=True)
    k.set_defaults(fn=cmd_pack)
    return p


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves a parser
    as it was, and every default is immutable, so calls share nothing."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.fn(args)
    except OSError as e:
        return _usage_fail(f"cannot open {e.filename!r}: {e.strerror or e}")
    except (io.FileFormatError, ConfigError, DomainError) as e:
        return _usage_fail(str(e))
    except (train.TrainingDiverged, AccumulatorOverflow, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
