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
    KIND_LINEAR,
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


def write_csv(path, header: list[str], rows) -> None:
    """``rows`` under ``header``; the csv module writes a float in its
    shortest round-trip form, and a NaN is written as an empty field."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)  # RFC 4180 line endings
        w.writerow(header)
        w.writerows(["" if isinstance(v, float) and math.isnan(v) else v for v in row]
                    for row in rows)


def load_images(path) -> np.ndarray:
    arr = io.read_idx(path)
    if arr.ndim == 3:
        arr = arr[:, None, :, :]
    if arr.ndim != 4:
        raise io.FileFormatError(0, f"expected rank 3 or 4 image data, got rank {arr.ndim}")
    if arr.dtype == np.uint8:
        arr = arr.astype(np.float32) / 255.0
    return arr.astype(np.float32)


# gen-data writes uint8 labels, and the largest training label sizes the net
_MAX_CLASSES = 256


def load_labels(path, count: int | None = None) -> np.ndarray:
    """Rank-1 labels, each a whole number >= 0 below ``_MAX_CLASSES``; a
    label that is not is refused at its byte offset."""
    arr = io.read_idx(path)
    if arr.ndim != 1:
        raise io.FileFormatError(0, f"labels must be rank 1, got rank {arr.ndim}")
    with np.errstate(invalid="ignore"):  # a float32 past int64 casts to a negative
        labels = arr.astype(np.int64)
    for bad, rule in (((labels < 0) | (labels != arr), "a whole number >= 0"),
                      (labels >= _MAX_CLASSES, f"a class below {_MAX_CLASSES}")):
        if bad.any():  # rank 1: an 8-byte header
            i = int(np.argmax(bad))
            raise io.FileFormatError(8 + arr.itemsize * i, f"label {i} is {arr[i]!s}, not {rule}")
    if count is not None and len(labels) != count:
        raise io.FileFormatError(0, f"{len(labels)} labels for {count} samples")
    return labels


# the names of log bases (as base_frac_bits) and rounding modes
_BASES = {"2": 0, "sqrt2": 1}
_ROUNDINGS = {"nearest": ROUND_NEAREST, "floor": ROUND_FLOOR}


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


def _integer(text: str) -> int:
    """The argparse type of integers: an optional '-', then decimal digits."""
    if not text.removeprefix("-").isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _int_at_least(lo: int):
    """The argparse type of ``_integer``s >= ``lo`` (0 or 1): digits only."""
    what = ("non-negative", "positive")[lo]

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < lo:
            raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}")
        return int(text)
    return parse


def _finite_float(lo: float, what: str):
    """The argparse type of finite numbers >= ``lo``, ``what`` naming them."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value >= lo):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_non_negative_float = _finite_float(0.0, "a finite number >= 0")
_number = _finite_float(-math.inf, "a number")


def _one_of(choices):
    """The argparse type of a member of ``choices`` (a dict's key: its value)."""
    def parse(text: str):
        if text not in choices:
            raise argparse.ArgumentTypeError(f"expected one of {sorted(choices)}, got {text!r}")
        return choices[text] if isinstance(choices, dict) else text
    return parse


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _conv_widths(text: str) -> tuple[int, ...]:
    """The type of two comma-separated positive integers; a width below 1
    is reported with the whole text."""
    try:
        widths = tuple(_integer(w.strip()) for w in text.split(","))
    except argparse.ArgumentTypeError:
        widths = ()
    if len(widths) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated integers, got {text!r}")
    if min(widths) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return widths


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    if args.classes > _MAX_CLASSES:
        return _usage_fail(f"--classes must be at most {_MAX_CLASSES} (labels are written "
                           f"as uint8), got {args.classes}")
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
    template = QuantizerConfig(KIND_LOG, args.bits, True, 0, _BASES[args.base],
                               _ROUNDINGS[args.rounding])
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

# every train config key: its default text (None: the key is required) and
# its parser, an argparse type; the config's values are the parsed ones
_TRAIN_KEYS = {
    "train_images": (None, str), "train_labels": (None, str),
    "out_model": (None, str), "out_metrics": (None, str),
    "test_images": ("", str), "test_labels": ("", str),
    "conv_channels": ("8,16", _conv_widths), "fc_units": ("64", _int_at_least(1)),
    "act_bits": ("4", _integer), "act_fsr": ("3", _integer),
    "weight_bits": ("5", _integer), "grad_bits": ("5", _integer),
    "act_kind": ("log", _one_of((KIND_LOG, KIND_LINEAR))),
    "weight_kind": ("log", _one_of((KIND_LOG, KIND_LINEAR))),
    "base": ("2", _one_of(_BASES)), "rounding": ("nearest", _one_of(_ROUNDINGS)),
    "optimizer": ("sgd", _one_of({"sgd": "sgd_momentum", "adam": "adam"})),
    "lr": ("0.02", _number), "momentum": ("0.9", _number),
    "beta1": ("0.9", _number), "beta2": ("0.999", _number), "eps": ("1e-8", _number),
    "lr_decay_epochs": ("0", _integer), "lr_decay_factor": ("0.1", _number),
    "batch_size": ("100", _integer), "epochs": ("10", _integer), "seed": ("0", _integer),
    "grad_fsr_floor": ("-20", _integer), "checkpoint_every": ("1", _int_at_least(1)),
}


def parse_train_config(path) -> dict:
    """Every key's parsed value from the key=value file at ``path``; a bad
    line, an unknown or missing key and a refused value raise ConfigError."""
    text = {key: default for key, (default, _) in _TRAIN_KEYS.items()}
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {ln}: expected key=value, got {line!r}")
            key, value = (p.strip() for p in line.split("=", 1))
            if key not in _TRAIN_KEYS:
                raise ConfigError(f"unknown config key '{key}'")
            text[key] = value
    values = {}
    for key, (_, parse) in _TRAIN_KEYS.items():
        if text[key] is None:
            raise ConfigError(f"missing required config key '{key}'")
        try:
            values[key] = parse(text[key])
        except argparse.ArgumentTypeError as e:
            raise ConfigError(f"key '{key}': {e}") from None
    return values


def build_train_setup(conf: dict):
    """Parsed config -> (graph, TrainConfig, training data, test data or
    None).  An empty training set is refused."""
    fb, rounding = conf["base"], conf["rounding"]
    act_q = weight_q = grad_q = None
    if conf["act_bits"]:
        act_q = QuantizerConfig(conf["act_kind"], conf["act_bits"], False, conf["act_fsr"],
                                0, rounding)
    if conf["weight_bits"]:
        weight_q = QuantizerConfig(conf["weight_kind"], conf["weight_bits"], True, 0,
                                   fb if conf["weight_kind"] == KIND_LOG else 0, rounding)
    if conf["grad_bits"]:
        grad_q = QuantizerConfig(KIND_LOG, conf["grad_bits"], True, 0, fb, rounding)
    opt = train.OptimizerSpec(kind=conf["optimizer"], **{k: conf[k] for k in (
        "lr", "momentum", "beta1", "beta2", "eps", "lr_decay_epochs", "lr_decay_factor")})
    cfg = train.TrainConfig(weight_q=weight_q, activation_q=act_q, gradient_q=grad_q,
                            optimizer=opt, **{k: conf[k] for k in (
                                "batch_size", "epochs", "seed", "grad_fsr_floor")})

    train_x = load_images(conf["train_images"])
    train_y = load_labels(conf["train_labels"], len(train_x))
    if len(train_y) == 0:
        raise DomainError("cannot train on an empty training set")
    test = None
    if conf["test_images"]:
        test_x = load_images(conf["test_images"])
        test = (test_x.astype(np.float64), load_labels(conf["test_labels"], len(test_x)))
    # activations stay on the base-2 grid; the base option applies to the
    # weight/gradient quantizers
    graph = train.build_small_cnn(train_x.shape[1:], conf["conv_channels"], conf["fc_units"],
                                  int(train_y.max()) + 1, conf["act_bits"] or 4, rounding)
    return graph, cfg, (train_x.astype(np.float64), train_y), test


def cmd_train(args) -> int:
    conf = parse_train_config(args.config)
    graph, cfg, train_data, test_data = build_train_setup(conf)
    state = train.init_state(graph, cfg)
    initial = train.sync_graph_weights(state, cfg)
    # a net the images cannot pass through is refused before any file is written
    for images, _ in filter(None, (train_data, test_data)):
        initial.output_shapes(images.shape)
    io.write_model(conf["out_model"], initial)

    header = ["step", "epoch", "loss", "train_acc", "test_acc"]
    rows: list[tuple] = []

    def on_epoch(row):
        rows.append((row["step"], row["epoch"], row["loss"], row["train_acc"],
                     row["test_acc"]))
        if row["epoch"] % conf["checkpoint_every"] == 0:
            io.write_model(conf["out_model"], train.sync_graph_weights(state, cfg))

    try:
        train.fit(state, cfg, train_data, test_data, on_epoch=on_epoch)
        io.write_model(conf["out_model"], train.sync_graph_weights(state, cfg))
    except train.TrainingDiverged as e:
        write_csv(conf["out_metrics"], header, rows)
        print(f"aborted: {e}; last good checkpoint kept at {conf['out_model']}",
              file=sys.stderr)
        return 1
    write_csv(conf["out_metrics"], header, rows)
    if rows:
        last = rows[-1]
        print(f"epoch {last[1]}: loss {last[2]:.4f} train_acc {last[3]:.4f} "
              + (f"test_acc {last[4]:.4f}" if not math.isnan(last[4]) else ""))
    print(f"checkpoint -> {conf['out_model']}; metrics -> {conf['out_metrics']}")
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
    k.add_argument("--base", choices=list(_BASES), default="2")
    k.add_argument("--rounding", choices=list(_ROUNDINGS), default="nearest")
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
