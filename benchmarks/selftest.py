"""Self-test of the benchmark's output checks.

    python3 benchmarks/selftest.py

Each check must accept the program's true output and reject the same output
with one small perturbation: a logit off by one accumulator LSB (or two
float32 ulps in float32 mode), a flipped code, a shifted fsr, a weight off
by one float32 ulp, a loss that does not fall, one changed prediction.
Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys
from dataclasses import replace

import common  # must come before numpy

import numpy as np

import checks
import run
from lognet import cli, io, lognum, train

failures: list[str] = []


def expect(label: str, true_result: str | None, perturbed_result: str | None) -> None:
    ok = true_result is None and perturbed_result is not None
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if true_result is not None:
        print(f"     rejected the true output: {true_result}")
    if perturbed_result is None:
        print("     accepted the perturbed output")
    if not ok:
        failures.append(label)


def cli_ok(argv: list[str]) -> None:
    rc = run._cli(argv)
    if rc != 0:
        raise RuntimeError(f"lognet {argv[0]} exited {rc}")


def main() -> int:
    workdir = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ctx = run.set_up("calibrate", 0, workdir)
        infer_checks(ctx)
        train_checks(ctx)
        calibrate_checks(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} check(s) misbehaved" if failures else "every check behaves")
    return 1 if failures else 0


def infer_checks(ctx: run.Context) -> None:
    x = ctx.infer_x[:run.SCALAR_IMAGES]
    scores = cli.predict_scores(ctx.graph, x, "float32", "linear")
    ref = checks.float_forward(ctx.graph, x)
    bad = scores.copy()
    j = np.unravel_index(np.abs(bad).argmax(), bad.shape)
    bad[j] = np.nextafter(np.nextafter(bad[j], np.inf, dtype=np.float32), np.inf,
                          dtype=np.float32)
    expect("float32 logits, one logit two float32 ulps off",
           checks.check_float_logits(scores, ref), checks.check_float_logits(bad, ref))
    cache: dict = {}
    for mode, accum, _ in run.MODES[1:]:
        scores = cli.predict_scores(ctx.graph, x, mode, accum)
        ref = np.stack([checks.scalar_logits(ctx.graph, img, mode, accum, cache)
                        for img in x])
        bad = scores.copy()
        bad[0, 1] = np.float32(float(bad[0, 1]) + checks.LSB)
        label = f"{mode}/{accum}"
        expect(f"{label} logits, one logit one accumulator LSB off",
               checks.check_quantized_logits(scores, ref, label),
               checks.check_quantized_logits(bad, ref, label))
    y = ctx.infer_y
    scores = cli.predict_scores(ctx.graph, ctx.infer_x, "float32", "linear")
    expect("top-1 floor, labels shifted by one class",
           checks.check_top1(scores, y, run.TOP1_FLOOR, "float32"),
           checks.check_top1(scores, (y + 1) % common.CLASSES, run.TOP1_FLOOR, "float32"))


def train_checks(ctx: run.Context) -> None:
    (state, history), _ = run._fit(ctx, ctx.quant_cfg)
    flat = [dict(row, loss=history[0]["loss"]) for row in history]
    expect("losses, last epoch no lower than the first",
           checks.check_losses(history, "quant"), checks.check_losses(flat, "quant"))
    path = os.path.join(ctx.workdir, "trained.lgn")
    io.write_model(path, train.sync_graph_weights(state, ctx.quant_cfg))
    graph = io.read_model(path)
    i = next(iter(state.params))
    nudged = {**state.params}
    w = state.params[i].astype(np.float32)
    w.flat[0] = np.nextafter(w.flat[0], np.inf, dtype=np.float32)
    nudged[i] = w.astype(np.float64)
    expect("checkpoint weights, one weight one float32 ulp off",
           checks.check_checkpoint_weights(state.params, graph),
           checks.check_checkpoint_weights(nudged, graph))
    logits, _ = train._forward_train(state, ctx.eval_x, ctx.quant_cfg, training=False)
    changed = logits.copy()
    changed[0, logits[0].argmin()] = logits[0].max() + 1.0
    expect("trainer predictions, one image's argmax changed",
           checks.check_same_predictions(logits, logits.copy()),
           checks.check_same_predictions(logits, changed))


def calibrate_checks(ctx: run.Context) -> None:
    w = ctx.workdir
    cal, report, packed = (os.path.join(w, f) for f in ("cal.lgn", "report.csv", "packed.lgn"))
    cli_ok(["calibrate", run.FLOAT_CKPT, ctx.calib_idx, "--samples",
            str(len(ctx.calib_x)), "--out", cal, "--report", report])
    graph = io.read_model(cal)
    shifted = io.read_model(cal)
    i = next(k for k, l in enumerate(shifted.layers) if l.qconfig is not None
             and l.kind in ("logquant", "linearquant"))
    shifted.layers[i] = replace(shifted.layers[i],
                                fsr_offset=shifted.layers[i].fsr_offset + 1)
    expect("calibrated fsr, one layer's fsr shifted by one",
           checks.check_report_argmin(report, graph),
           checks.check_report_argmin(report, shifted))

    captured: dict = {}
    checks.float_forward(ctx.float_graph, ctx.calib_x, captured)
    sample = captured[i].ravel()[:run.QUANT_SAMPLE]
    for kind in (lognum.KIND_LOG, lognum.KIND_LINEAR):
        cfg = lognum.QuantizerConfig(kind, run.CALIB_BITS, False,
                                     graph.fsr + graph.layers[i].fsr_offset)
        codes = (lognum.logquant_array if kind == lognum.KIND_LOG
                 else lognum.linquant_array)(sample, cfg)
        flipped = codes.copy()
        flipped[0] ^= 1
        expect(f"{kind} quantizer values, one code flipped",
               checks.check_quantizer_sample(sample, lognum.dequantize_array(codes, cfg),
                                             cfg, "selftest"),
               checks.check_quantizer_sample(sample, lognum.dequantize_array(flipped, cfg),
                                             cfg, "selftest"))

    cli_ok(["pack", run.FLOAT_CKPT, "--bits", str(run.PACK_BITS), "--out", packed])
    pgraph = io.read_model(packed)
    want = checks.packed_oracle(ctx.float_graph, pgraph)
    bad = io.read_model(packed)
    j = next(iter(want))
    t = bad.weights[j]
    codes = t.data.copy()
    codes.flat[0] ^= 1
    bad.weights[j] = type(t).from_codes(codes, t.qconfig)
    expect("packed weights, one code flipped",
           checks.check_packed(pgraph, want), checks.check_packed(bad, want))


if __name__ == "__main__":
    sys.exit(main())
