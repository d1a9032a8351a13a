"""The benchmark's harness against the package it drives.

``benchmarks/spans.py`` names the functions it wraps and counts kernel
terms from the operands it sees, and ``benchmarks/run.py`` and
``benchmarks/selftest.py`` call into the trainer, the model container and
the CLI.  A renamed function, a changed signature or a changed operand type
would otherwise only break a benchmark run; here it fails the test suite.
"""

import os
import sys

import numpy as np

from lognet import QuantizerConfig, Tensor, calib, cli, io, nn, train

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks"))
import spans  # noqa: E402


def test_traced_names_resolve():
    for mod, attr in (*spans.TRACED, *spans.TRACED_INIT):
        assert callable(getattr(spans.MODULES[mod], attr, None)), f"{mod}.{attr}"


def test_traced_operand_type_is_the_one_coded_type():
    # the operand span times the construction of every coded Tensor: stored
    # weights and walk operands alike
    assert nn.QuantizedOperand is Tensor


def test_count_functions_on_walker_operands(tmp_path):
    rng = np.random.default_rng(5)
    n = 4
    x = np.abs(rng.normal(0, 1, size=(n, 1, 8, 8)))
    data = (x, np.arange(n) % 3)
    cfg = train.TrainConfig(weight_q=QuantizerConfig("log", 5, True, 0),
                            activation_q=QuantizerConfig("log", 4, False, 0),
                            gradient_q=QuantizerConfig("log", 5, True, 0),
                            batch_size=n, epochs=1)
    state = train.init_state(train.build_small_cnn((1, 8, 8), (2, 3), 4, 3), cfg)
    graph = train.sync_graph_weights(state, cfg)
    forward = nn.forward
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mode, accum in (("method1", "linear"), ("method2_base2", "linear"),
                            ("method2_base2", "log")):
            nn.forward(graph, x, mode, accum)
        nn.collect_quantizer_inputs(graph, x)
        io.write_model(str(tmp_path / "net.lgn"), graph)
        train.fit(state, cfg, data, data)
        # the trainer reads codes as the shift kernels' values, so the
        # calibrate flow's quantize round trip is what dequantizes codes
        calib.quant_errors(x, cfg.activation_q)
    finally:
        tracer.uninstall()
    assert nn.forward is forward
    # per pass: conv1 on the real input runs the shifted-input kernel
    # (n*64 rows, k=9, o=2), conv2 (n*16, 18, 3), fc1 (n, 12, 4) and fc2
    # (n, 4, 3) run on log-coded activations
    coded_terms = n * 16 * 18 * 3 + n * 12 * 4 + n * 4 * 3
    counts = tracer.counts
    assert counts["nn.shifted_input_matmul.terms"] == 2 * n * 64 * 9 * 2
    assert counts["nn.method1_matmul.terms"] == coded_terms
    # method2_base2 only: training computes with nn.exact_dot
    assert counts["nn.method2_matmul.terms"] == coded_terms
    # the log-domain kernel steps with its own integer rule and calls no
    # lognum.log_accumulate_raw, whose span the tracer still names
    assert counts["lognum.log_accumulate_raw.calls"] == 0
    assert counts["io.write_model.bytes"] == os.path.getsize(tmp_path / "net.lgn")
    assert counts["tensor.im2col_array.bytes"] > 0
    assert counts["lognum.logquant_array.values"] > 0
    names = {span[1] for span in tracer.spans}
    for want in ("nn.QuantizedOperand", "nn.method2_matmul_logaccum", "nn.batchnorm_array",
                 "nn.maxpool_array", "nn.collect_quantizer_inputs", "train.train_minibatch",
                 "train.col2im_array", "train.optimizer_step", "train.evaluate",
                 "train.reestimate_bn_stats", "lognum.dequantize_array"):
        assert want in names, want


def test_harness_calls_around_a_trained_net(tmp_path):
    # the train workload's checkpoint round trip and the selftest's
    # perturbations: sync_graph_weights(state, cfg) -> io.write_model ->
    # io.read_model -> cli.predict_scores, the trainer's inference walk, and
    # the stored weights and quantizer layers the checks read
    rng = np.random.default_rng(11)
    n = 4
    x = np.abs(rng.normal(0, 1, size=(n, 1, 8, 8)))
    cfg = train.TrainConfig(weight_q=QuantizerConfig("log", 5, True, 0),
                            activation_q=QuantizerConfig("log", 4, False, 3),
                            gradient_q=QuantizerConfig("log", 5, True, 0),
                            batch_size=n, epochs=1)
    state = train.init_state(train.build_small_cnn((1, 8, 8), (2, 3), 4, 3), cfg)
    state, history = train.fit(state, cfg, (x, np.arange(n) % 3))
    assert len(history) == 1 and set(history[0]) >= {"loss", "train_acc"}
    path = str(tmp_path / "trained.lgn")
    io.write_model(path, train.sync_graph_weights(state, cfg))
    graph = io.read_model(path)
    scores = cli.predict_scores(graph, x.astype(np.float32), "method2_base2", "linear", 256)
    assert scores.shape == (n, 3) and scores.dtype == np.float32
    logits, caches = train._forward_train(state, x, cfg, training=False)
    assert logits.shape == (n, 3) and caches is None
    for i, w in state.params.items():
        t = graph.weights[i]
        assert not t.is_quantized and t.data.tobytes() == w.astype(np.float32).tobytes()
    quant = [l for l in graph.layers if l.kind in (nn.LOGQUANT, nn.LINQUANT)]
    assert quant and all(isinstance(l.fsr_offset, int) and l.qconfig for l in quant)

    packed = str(tmp_path / "packed.lgn")
    assert cli.main(["pack", path, "--bits", "4", "--out", packed]) == 0
    pgraph = io.read_model(packed)
    for i in state.params:
        t = pgraph.weights[i]
        assert t.is_quantized and t.qconfig == pgraph.layers[i].qconfig
        codes = t.data.copy()
        codes.flat[0] ^= 1
        flipped = type(t).from_codes(codes, t.qconfig)
        assert flipped.qconfig == t.qconfig and (flipped.data != t.data).sum() == 1
