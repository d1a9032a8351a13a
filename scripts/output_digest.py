"""SHA-256 digests of lognet's outputs, to show that a change keeps them bit
for bit.

    python3 scripts/output_digest.py

Run it in two checkouts (the script may be copied into the older one) and
compare the lines: one digest per part, then one over all of them.  It
takes no flags.  BLAS and ``LOGNET_THREADS`` run on one thread.  The parts:

* ``forward/<net>/<mode>/<accum>``: ``nn.forward`` class scores of both
  ``benchmarks/ref/*.lgn`` (5-bit base-2 weight quantizers attached, as
  ``lognet infer`` attaches them) in every mode/accumulation pair;
* ``capture/<net>``: ``nn.collect_quantizer_inputs`` on both nets;
* ``fit/<trainer>``: ``train.fit`` of a small CNN by the 4b/5b/5b log
  trainer on base-2 and on sqrt2 weight and gradient grids, the float
  trainer and a linear-quantizer trainer: master weights, batchnorm state,
  history, ``train.evaluate``, the trainer's inference logits, the
  checkpoint's bytes and the re-read checkpoint's scores in every mode;
* ``cli/<command>``: ``lognet calibrate``, ``quant-analyze`` and ``pack``
  (5b base 2 and 4b sqrt2) on ``ref/float.lgn``: output files and stdout;
* ``data/<case>``: ``make_pattern_dataset`` images and labels of the four
  draws one ``infer`` benchmark run at seed 1 makes (``infer``, ``train``,
  ``eval`` and ``calibrate``), and the files and stdout of ``lognet
  gen-data`` at its defaults;
* ``fsr/<net>/<sample>/<kind>``: ``calib.fsr_error_profile`` over the
  default grid on every conv/fc weight array of both nets (5-bit signed
  templates: log base 2, log sqrt2, linear) and on ``ref/float.lgn``'s
  quantizer inputs over 200 images (4-bit unsigned: log, linear).

A part that raises digests its exception's type and message.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "LOGNET_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from lognet import calib, cli, io, nn, train  # noqa: E402
from lognet.datasets import make_pattern_dataset  # noqa: E402
from lognet.lognum import ROUND_NEAREST, QuantizerConfig  # noqa: E402

REF_DIR = os.path.join(ROOT, "benchmarks", "ref")
NETS = ("float", "calibrated")
PAIRS = (("float32", "linear"), ("method1", "linear"),
         ("method2_base2", "linear"), ("method2_base2", "log"),
         ("method2_sqrt2", "linear"), ("method2_sqrt2", "log"))


def dataset(n: int, seed: int):
    """Samples of the benchmark's 10-class 12x12 task."""
    return make_pattern_dataset(n, classes=10, size=12, seed=seed, template_seed=100)


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        h.update(f"{{{len(obj)}".encode())
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    else:
        h.update(repr(obj).encode())


def digest(fn) -> str:
    """SHA-256 of what ``fn()`` returns, or of the exception it raises."""
    h = hashlib.sha256()
    try:
        _feed(h, fn())
    except Exception as e:  # a refusal is an output too
        _feed(h, f"{type(e).__name__}: {e}")
    return h.hexdigest()


def ref_net(name: str) -> nn.ModelGraph:
    graph = io.read_model(os.path.join(REF_DIR, f"{name}.lgn"))
    cli.ensure_weight_qconfigs(graph, 5, 0, ROUND_NEAREST)
    return graph


def forward_parts(parts: dict) -> None:
    x, _ = dataset(256, 11)
    for name in NETS:
        graph = ref_net(name)
        for mode, accum in PAIRS:
            parts[f"forward/{name}/{mode}/{accum}"] = digest(
                lambda: nn.forward(graph, x, mode, accum))
        parts[f"capture/{name}"] = digest(lambda: nn.collect_quantizer_inputs(graph, x))


TRAINERS = {
    "log_base2": dict(weight_q=QuantizerConfig("log", 5, True, 0),
                      activation_q=QuantizerConfig("log", 4, False, 3),
                      gradient_q=QuantizerConfig("log", 5, True, 0)),
    "log_sqrt2": dict(weight_q=QuantizerConfig("log", 5, True, 0, 1),
                      activation_q=QuantizerConfig("log", 4, False, 3),
                      gradient_q=QuantizerConfig("log", 5, True, 0, 1)),
    "float": dict(),
    "linear": dict(weight_q=QuantizerConfig("linear", 6, True, 0),
                   activation_q=QuantizerConfig("linear", 4, False, 2),
                   gradient_q=QuantizerConfig("log", 5, True, 0)),
}


def fit_outputs(trainer: str, tmp: str) -> dict:
    train_x, train_y = dataset(500, 21)
    test_x, test_y = dataset(256, 22)
    train_x, test_x = train_x.astype(np.float64), test_x.astype(np.float64)
    cfg = train.TrainConfig(optimizer=train.OptimizerSpec(lr=0.03, momentum=0.9),
                            batch_size=50, epochs=3, seed=3, **TRAINERS[trainer])
    graph = train.build_small_cnn((1, 12, 12), (8, 16), 64, 10)
    state, history = train.fit(train.init_state(graph, cfg), cfg, (train_x, train_y),
                               (test_x, test_y))
    path = os.path.join(tmp, f"{trainer}.lgn")
    io.write_model(path, train.sync_graph_weights(state, cfg))
    with open(path, "rb") as f:
        checkpoint = f.read()
    bn = {i: [p.gamma, p.beta, p.mean, p.var] for i, p in state.bn.items()}
    reread = io.read_model(path)
    return {
        "params": state.params, "bn": bn, "history": history,
        "evaluate": train.evaluate(state, cfg, test_x, test_y),
        "logits": train._forward_train(state, test_x, cfg, training=False)[0],
        "checkpoint": checkpoint,
        "reread": {pair: digest(lambda: nn.forward(reread, test_x, *pair)) for pair in PAIRS},
    }


def cli_outputs(argv: list[str], outputs: list[str], tmp: str) -> dict:
    stdout = _stdio.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp)  # output paths print as given, so they are relative
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        files = {}
        for name in outputs:
            with open(name, "rb") as f:
                files[name] = f.read()
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": stdout.getvalue(), "files": files}


def cli_parts(parts: dict, tmp: str) -> None:
    model = os.path.join(REF_DIR, "float.lgn")
    images = os.path.join(tmp, "images.idx")
    io.write_idx(images, dataset(120, 31)[0])
    runs = {
        "calibrate": (["calibrate", model, images, "--samples", "100", "--out", "cal.lgn",
                       "--report", "cal.csv"], ["cal.lgn", "cal.csv"]),
        "quant-analyze": (["quant-analyze", model, images, "--bins", "64",
                           "--out", "hist.csv"], ["hist.csv"]),
        "pack-5b-base2": (["pack", model, "--bits", "5", "--out", "p5.lgn"], ["p5.lgn"]),
        "pack-4b-sqrt2": (["pack", model, "--bits", "4", "--base", "sqrt2",
                           "--out", "p4.lgn"], ["p4.lgn"]),
    }
    for name, (argv, outputs) in runs.items():
        parts[f"cli/{name}"] = digest(lambda: cli_outputs(argv, outputs, tmp))


# benchmarks/run.py's draws for one infer-workload run at seed 1:
# (images, seed 1000 * 1 + part) of its infer, train, eval and calibrate sets
BENCH_DRAWS = {"infer": (1024, 1001), "train": (500, 1002), "eval": (512, 1003),
               "calibrate": (50, 1004)}
GEN_DATA_FILES = [f"gen/{split}-{kind}.idx" for split in ("train", "test")
                  for kind in ("images", "labels")]


def data_parts(parts: dict, tmp: str) -> None:
    for name, (n, seed) in BENCH_DRAWS.items():
        parts[f"data/{name}"] = digest(lambda: dataset(n, seed))
    parts["data/gen-data"] = digest(
        lambda: cli_outputs(["gen-data", "--out", "gen"], GEN_DATA_FILES, tmp))


def fsr_parts(parts: dict) -> None:
    weight_templates = {"log": QuantizerConfig("log", 5, True, 0),
                        "sqrt2": QuantizerConfig("log", 5, True, 0, 1),
                        "linear": QuantizerConfig("linear", 5, True, 0)}
    for name in NETS:
        graph = io.read_model(os.path.join(REF_DIR, f"{name}.lgn"))
        weights = [graph.weight_array(i) for i, layer in enumerate(graph.layers)
                   if layer.kind in (nn.CONV, nn.FC)]
        for kind, cfg in weight_templates.items():
            parts[f"fsr/{name}/weights/{kind}"] = digest(
                lambda: [calib.fsr_error_profile(w, cfg) for w in weights])
    graph = io.read_model(os.path.join(REF_DIR, "float.lgn"))
    captured = nn.collect_quantizer_inputs(graph, dataset(200, 41)[0])
    for kind, cfg in (("log", QuantizerConfig("log", 4, False, 0)),
                      ("linear", QuantizerConfig("linear", 4, False, 0))):
        parts[f"fsr/float/captures/{kind}"] = digest(
            lambda: {i: calib.fsr_error_profile(a, cfg) for i, a in captured.items()})


def main() -> int:
    parts: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        forward_parts(parts)
        for trainer in TRAINERS:
            parts[f"fit/{trainer}"] = digest(lambda: fit_outputs(trainer, tmp))
        cli_parts(parts, tmp)
        data_parts(parts, tmp)
        fsr_parts(parts)
    overall = hashlib.sha256()
    for name, hexdigest in parts.items():
        print(f"{hexdigest}  {name}")
        overall.update(f"{name} {hexdigest}\n".encode())
    print(f"{overall.hexdigest()}  overall")
    return 0


if __name__ == "__main__":
    sys.exit(main())
