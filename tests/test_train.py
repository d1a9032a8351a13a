"""Training-loop tests: optimizers, gradients, quantized steps, convergence."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from lognet import QuantizerConfig, train
from lognet.lognum import LogCode, dot_method2, logquant_array
from lognet.nn import (LOGQUANT, LayerSpec, ModelGraph, QuantizedOperand, batchnorm_layer,
                       conv, fc, maxpool_layer, quantize_operand, relu_layer, walk)
from lognet.nn import act_quant_layer
from lognet.tensor import im2col_array
from lognet.train import (
    OptimizerSpec,
    TrainConfig,
    TrainingDiverged,
    _arithmetic,
    _backward_train,
    _forward_train,
    ceil_log2,
    col2im_array,
    dynamic_gradient_fsr,
    evaluate,
    fit,
    init_state,
    optimizer_step,
    reestimate_bn_stats,
    softmax_cross_entropy,
    train_minibatch,
)

W5 = QuantizerConfig("log", 5, True, 0)
A4 = QuantizerConfig("log", 4, False, 3)
G5 = QuantizerConfig("log", 5, True, 0)


def tiny_fc_graph(in_features=6, hidden=5, classes=3):
    return ModelGraph(layers=[
        fc(hidden, in_features), relu_layer(), fc(classes, hidden)], fsr=0)


def toy_batch(rng, n=8, in_features=6, classes=3):
    x = rng.normal(size=(n, in_features))
    y = rng.integers(0, classes, size=n)
    return x, y


# ---------------------------------------------------------------------------
# small pieces
# ---------------------------------------------------------------------------

def test_optimizer_step_examples():
    w = np.array([1.0])
    assert optimizer_step(w, np.zeros(1), {}, OptimizerSpec("sgd_momentum", lr=0.5, momentum=0.0))[0] == 1.0
    got = optimizer_step(w, np.ones(1), {}, OptimizerSpec("sgd_momentum", lr=0.1, momentum=0.0))
    assert got[0] == pytest.approx(0.9)
    # Adam's first bias-corrected step moves by ~lr
    adam = OptimizerSpec("adam", lr=0.01)
    got = optimizer_step(w, np.ones(1), {}, adam)
    assert got[0] == pytest.approx(1.0 - 0.01, rel=1e-6)


def test_optimizer_momentum_accumulates():
    spec = OptimizerSpec("sgd_momentum", lr=1.0, momentum=0.5)
    moments = {}
    w = np.zeros(1)
    w = optimizer_step(w, np.ones(1), moments, spec)   # v=1, w=-1
    w = optimizer_step(w, np.ones(1), moments, spec)   # v=1.5, w=-2.5
    assert w[0] == pytest.approx(-2.5)


def test_ceil_log2_exact():
    assert ceil_log2(8.0) == 3
    assert ceil_log2(5.0) == 3
    assert ceil_log2(0.25) == -2
    assert ceil_log2(0.3) == -1


def test_step_decay_schedule():
    spec = OptimizerSpec(lr=0.1, lr_decay_epochs=5, lr_decay_factor=0.1)
    assert spec.lr_at(0) == 0.1
    assert spec.lr_at(4) == 0.1
    assert spec.lr_at(5) == pytest.approx(0.01)
    assert spec.lr_at(10) == pytest.approx(0.001)
    assert OptimizerSpec(lr=0.1).lr_at(99) == 0.1


def test_dynamic_gradient_fsr_examples():
    assert dynamic_gradient_fsr(np.array([8.0, -2.0])) == 3
    assert dynamic_gradient_fsr(np.array([5.0])) == 3
    assert dynamic_gradient_fsr(np.zeros(4)) == -20
    assert dynamic_gradient_fsr(np.zeros(4), floor=-7) == -7


def test_train_config_validation():
    with pytest.raises(Exception):
        TrainConfig(activation_q=QuantizerConfig("log", 5, True, 0))
    with pytest.raises(Exception):
        TrainConfig(weight_q=QuantizerConfig("log", 5, False, 0))
    with pytest.raises(Exception):
        TrainConfig(gradient_q=QuantizerConfig("log", 5, False, 0))


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------

def numeric_grad(f, w, h=1e-5):
    g = np.zeros_like(w)
    it = np.nditer(w, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        old = w[idx]
        w[idx] = old + h
        up = f()
        w[idx] = old - h
        dn = f()
        w[idx] = old
        g[idx] = (up - dn) / (2 * h)
    return g


def test_gradients_match_finite_differences_fc():
    rng = np.random.default_rng(71)
    graph = tiny_fc_graph()
    cfg = TrainConfig(optimizer=OptimizerSpec(lr=0.0), seed=1)
    state = init_state(graph, cfg)
    x, y = toy_batch(rng)

    logits, caches = _forward_train(state, x, cfg, training=True)
    loss, gl = softmax_cross_entropy(logits, y)
    grads, _ = _backward_train(state, caches, gl, cfg)

    for i in grads:
        def loss_fn(i=i):
            lg, _ = _forward_train(state, x, cfg, training=True)
            return softmax_cross_entropy(lg, y)[0]
        num = numeric_grad(loss_fn, state.params[i])
        denom = np.maximum(np.abs(num), 1e-4)
        assert (np.abs(grads[i] - num) / denom).max() < 1e-3


def test_gradients_match_finite_differences_conv_bn_pool():
    rng = np.random.default_rng(73)
    graph = ModelGraph(layers=[
        conv(3, 1, 3, pad=1),
        batchnorm_layer(3),
        relu_layer(),
        maxpool_layer(2),
        fc(2, 3 * 2 * 2),
    ], fsr=0)
    cfg = TrainConfig(seed=2)
    state = init_state(graph, cfg)
    x = rng.normal(size=(4, 1, 4, 4))
    y = rng.integers(0, 2, size=4)

    logits, caches = _forward_train(state, x, cfg, training=True)
    _, gl = softmax_cross_entropy(logits, y)
    grads, bn_grads = _backward_train(state, caches, gl, cfg)

    def loss_fn():
        lg, _ = _forward_train(state, x, cfg, training=True)
        return softmax_cross_entropy(lg, y)[0]

    for i in grads:
        num = numeric_grad(loss_fn, state.params[i])
        denom = np.maximum(np.abs(num), 1e-4)
        assert (np.abs(grads[i] - num) / denom).max() < 1e-3, f"layer {i}"
    for i, (dgamma, dbeta) in bn_grads.items():
        num_g = numeric_grad(loss_fn, state.bn[i].gamma)
        num_b = numeric_grad(loss_fn, state.bn[i].beta)
        assert np.abs(dgamma - num_g).max() < 1e-4
        assert np.abs(dbeta - num_b).max() < 1e-4


def test_col2im_is_the_exact_adjoint_of_im2col():
    # <im2col(x), G> == <x, col2im(G)> for integer-valued x and G, where
    # every product and sum is an exact integer in float64
    rng = np.random.default_rng(97)
    for k in (1, 2, 3):
        for stride in (1, 2):
            for pad in (0, 1):
                h = k - 2 * pad + 2 * stride  # tiles the extent at this stride
                w = h + stride
                for c in (1, 3):
                    for dtype in (np.float64, np.uint8):
                        x = rng.integers(0, 16, size=(2, c, h, w)).astype(dtype)
                        cols, oh, ow = im2col_array(x, (k, k), stride, pad)
                        assert cols.shape == (2 * oh * ow, c * k * k)
                        assert cols.dtype == dtype and cols.flags["C_CONTIGUOUS"]
                        g = rng.integers(-5, 6, size=cols.shape).astype(np.float64)
                        back = col2im_array(g, x.shape, k, stride, pad)
                        assert back.shape == x.shape
                        assert (cols * g).sum() == (x * back).sum(), (k, stride, pad, c, dtype)


def test_forward_only_walks_keep_no_cache(monkeypatch):
    # evaluate and reestimate_bn_stats walk without a backward cache, so they
    # pool without argmax indices; their logits and batch statistics must
    # equal those of the same walks made with a cache.  Float pooling of the
    # input meets +0/-0 ties; pooling unsigned log codes meets all-zero windows
    graph = ModelGraph(layers=[
        maxpool_layer(2),
        conv(3, 2, 3, pad=1),
        batchnorm_layer(3),
        relu_layer(),
        act_quant_layer("log", 4),
        maxpool_layer(2),
        fc(4, 3 * 2 * 2),
        batchnorm_layer(4),
        relu_layer(),
        act_quant_layer("log", 4),
        fc(3, 4),
    ], fsr=0)
    rng = np.random.default_rng(101)
    x = rng.choice([-0.0, 0.0, -1.5, 0.5, 2.0], size=(24, 2, 8, 8))
    x[:, :, :2, :2] = [[0.0, -0.0], [-0.0, 0.0]]
    x[:3] = 0.0
    y = rng.integers(0, 3, size=24)
    cfg = TrainConfig(weight_q=W5, activation_q=A4, gradient_q=G5,
                      optimizer=OptimizerSpec(lr=0.05), batch_size=8, epochs=1, seed=5)
    state, _ = fit(init_state(graph, cfg), cfg, (x, y))

    def recorded(force_cache):
        seen = []

        def spy(*args, cache=None, batch_stats=None, **kw):
            if force_cache:
                cache = {}
            out = walk(*args, cache=cache, batch_stats=batch_stats, **kw)
            seen.append((cache is not None, out, copy.deepcopy(batch_stats)))
            return out

        monkeypatch.setattr(train, "walk", spy)
        s = copy.deepcopy(state)
        acc = evaluate(s, cfg, x, y, batch_size=10)
        reestimate_bn_stats(s, cfg, x)
        monkeypatch.undo()
        return acc, s.bn, seen

    acc, bn, seen = recorded(False)
    acc_c, bn_c, seen_c = recorded(True)
    assert len(seen) == len(seen_c) == 3 + 3  # three eval and three bn batches
    assert not any(cached for cached, _, _ in seen)
    assert acc == acc_c
    for (_, out, stats), (_, out_c, stats_c) in zip(seen, seen_c):
        assert out.tobytes() == out_c.tobytes()
        assert (stats is None) == (stats_c is None)
        for i in stats or {}:
            assert all(a.tobytes() == b.tobytes() for a, b in zip(stats[i], stats_c[i]))
    for i in bn:
        for name in ("gamma", "beta", "mean", "var"):
            assert getattr(bn[i], name).tobytes() == getattr(bn_c[i], name).tobytes()

    # only a training walk without bn_collect keeps caches
    assert _forward_train(state, x[:4], cfg, training=False)[1] is None
    assert _forward_train(copy.deepcopy(state), x[:4], cfg, training=True,
                          bn_collect={})[1] is None
    assert _forward_train(copy.deepcopy(state), x[:4], cfg, training=True)[1] is not None

    # the trainer's activations are unsigned; a signed log activation pools
    # by value rank, in the trainer's arithmetic, alike with and without cache
    s4 = QuantizerConfig("log", 4, True, 0)
    sgraph = ModelGraph(layers=[LayerSpec(LOGQUANT, qconfig=s4), maxpool_layer(2),
                                fc(4, 2 * 4 * 4), batchnorm_layer(4), fc(3, 4)], fsr=2)
    xs = rng.choice([-0.0, 0.0, -4.0, -1.0, 0.5, 1.0, 2.0], size=(6, 2, 8, 8))
    xs[:, :, :2, :2] = [[-1.0, 0.0], [-0.0, 0.0]]
    wq = {i: quantize_operand(rng.normal(0, 0.5, size=shape), replace(W5, fsr=1))
          for i, shape in ((2, (4, 32)), (4, (3, 4)))}
    bn = {3: copy.deepcopy(state.bn[7])}
    outs = []
    for cache in (None, {}):
        stats: dict = {}
        out = walk(sgraph, xs, wq, sgraph.act_config, bn, _arithmetic(cfg),
                   batch_stats=stats, cache=cache)
        outs.append((out, stats))
    (out, stats), (out_c, stats_c) = outs
    assert out.tobytes() == out_c.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(stats[3], stats_c[3]))


# ---------------------------------------------------------------------------
# step semantics
# ---------------------------------------------------------------------------

def test_frozen_weight_walks_quantize_the_weights_once(monkeypatch):
    # evaluate and reestimate_bn_stats build the weight operands once per
    # call, not once per batch, and get the logits and batch statistics of
    # walks that quantize the weights themselves
    graph = ModelGraph(layers=[fc(5, 6), batchnorm_layer(5), relu_layer(),
                               act_quant_layer("log", 4), fc(3, 5)], fsr=0)
    rng = np.random.default_rng(107)
    x = rng.normal(0, 1.0, size=(26, 6))
    y = rng.integers(0, 3, size=26)
    cfg = TrainConfig(weight_q=W5, activation_q=A4, gradient_q=G5,
                      optimizer=OptimizerSpec(lr=0.05), batch_size=8, epochs=1, seed=3)
    state, _ = fit(init_state(graph, cfg), cfg, (x, y))
    want_acc = sum(int((_forward_train(state, x[lo:lo + 10], cfg, training=False)[0]
                        .argmax(axis=1) == y[lo:lo + 10]).sum())
                   for lo in range(0, 26, 10)) / 26
    want_bn = copy.deepcopy(state)
    collect: dict = {}
    for lo in range(0, 26, 8):
        _forward_train(want_bn, x[lo:lo + 8], cfg, training=True, bn_collect=collect)
    assert len(next(iter(collect.values()))) == 4

    builds = []
    build = train._weight_operands
    monkeypatch.setattr(train, "_weight_operands", lambda *a: builds.append(1) or build(*a))
    assert evaluate(state, cfg, x, y, batch_size=10) == want_acc
    assert len(builds) == 1
    reestimate_bn_stats(state, cfg, x)
    assert len(builds) == 2
    for i, stats in collect.items():
        assert state.bn[i].mean.tobytes() == np.mean([m for m, _ in stats], axis=0).tobytes()
        assert state.bn[i].var.tobytes() == np.mean([v for _, v in stats], axis=0).tobytes()


def test_zero_learning_rate_keeps_weights():
    rng = np.random.default_rng(79)
    graph = tiny_fc_graph()
    cfg = TrainConfig(optimizer=OptimizerSpec(lr=0.0), seed=3)
    state = init_state(graph, cfg)
    before = {i: w.copy() for i, w in state.params.items()}
    state, m = train_minibatch(state, toy_batch(rng), cfg)
    assert math.isfinite(m["loss"])
    for i, w in state.params.items():
        assert np.array_equal(w, before[i])


def test_single_layer_sgd_hand_computed():
    # one linear layer, one sample, lr=1: W' = W - g^T a with
    # g = softmax(Wa) - onehot
    graph = ModelGraph(layers=[fc(2, 2)], fsr=0)
    cfg = TrainConfig(optimizer=OptimizerSpec("sgd_momentum", lr=1.0, momentum=0.0), seed=0)
    state = init_state(graph, cfg)
    state.params[0] = np.array([[0.5, -0.25], [0.0, 1.0]])
    x = np.array([[2.0, 1.0]])
    y = np.array([0])
    logits = x @ state.params[0].T
    p = np.exp(logits) / np.exp(logits).sum()
    g_out = p.copy()
    g_out[0, 0] -= 1.0
    want = state.params[0] - g_out.T @ x
    state, _ = train_minibatch(state, (x, y), cfg)
    assert np.allclose(state.params[0], want, atol=1e-12)


def test_plain_float_trainer_parity():
    # with every quantizer disabled the trainer must track an independently
    # written float reference step for step
    rng = np.random.default_rng(83)
    in_f, hidden, classes = 5, 4, 3
    graph = ModelGraph(layers=[fc(hidden, in_f), relu_layer(), fc(classes, hidden)], fsr=0)
    cfg = TrainConfig(optimizer=OptimizerSpec("sgd_momentum", lr=0.05, momentum=0.9), seed=11)
    state = init_state(graph, cfg)

    w1 = state.params[0].copy()
    w2 = state.params[2].copy()
    v1 = np.zeros_like(w1)
    v2 = np.zeros_like(w2)

    for step in range(100):
        x = rng.normal(size=(6, in_f))
        y = rng.integers(0, classes, size=6)

        # reference: plain numpy trainer
        h = x @ w1.T
        hr = np.maximum(h, 0)
        logits = hr @ w2.T
        z = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        gl = p.copy()
        gl[np.arange(6), y] -= 1
        gl /= 6
        gw2 = gl.T @ hr
        ghr = gl @ w2
        gh = ghr * (h > 0)
        gw1 = gh.T @ x
        v2 = 0.9 * v2 + gw2
        w2 = w2 - 0.05 * v2
        v1 = 0.9 * v1 + gw1
        w1 = w1 - 0.05 * v1

        state, _ = train_minibatch(state, (x, y), cfg)

        for got, want in ((state.params[0], w1), (state.params[2], w2)):
            denom = np.maximum(np.abs(want), 1e-8)
            assert (np.abs(got - want) / denom).max() < 1e-4


def test_determinism_same_seed_same_trajectory():
    data_rng = np.random.default_rng(89)
    x = data_rng.normal(size=(64, 6)).astype(np.float64)
    y = data_rng.integers(0, 3, size=64)
    cfg = TrainConfig(weight_q=W5, activation_q=A4, gradient_q=G5,
                      optimizer=OptimizerSpec(lr=0.05), batch_size=16,
                      epochs=3, seed=7)

    def run():
        graph = ModelGraph(layers=[fc(8, 6), relu_layer(),
                                   act_quant_layer("log", 4), fc(3, 8)], fsr=0)
        state = init_state(graph, cfg)
        state, history = fit(state, cfg, (x, y))
        return state, history

    s1, h1 = run()
    s2, h2 = run()
    assert h1 == h2
    for i in s1.params:
        assert np.array_equal(s1.params[i], s2.params[i])


def test_divergence_detection():
    graph = ModelGraph(layers=[fc(2, 2)], fsr=0)
    cfg = TrainConfig(seed=0)
    state = init_state(graph, cfg)
    state.params[0] = np.array([[1e300, 1e300], [-1e300, -1e300]])
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
        train_minibatch(state, (np.full((2, 2), 1e10), np.array([0, 1])), cfg)


def test_quantized_training_learns_separable_toyset():
    # 5b signed log weights and gradients, 4b unsigned activations: a linearly
    # separable 2-class cloud must reach >= 99% train accuracy inside 50 epochs
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        n = 200
        y = rng.integers(0, 2, size=n)
        centers = np.array([[2.0, -1.0, 0.5, -0.5], [-1.5, 1.5, -0.5, 0.5]])
        x = centers[y] + rng.normal(scale=0.45, size=(n, 4))

        graph = ModelGraph(layers=[fc(8, 4), relu_layer(),
                                   act_quant_layer("log", 4), fc(2, 8)], fsr=2)
        cfg = TrainConfig(
            weight_q=QuantizerConfig("log", 5, True, 0),
            activation_q=QuantizerConfig("log", 4, False, 0),
            gradient_q=QuantizerConfig("log", 5, True, 0),
            optimizer=OptimizerSpec("sgd_momentum", lr=0.05, momentum=0.9),
            batch_size=20, epochs=50, seed=seed)
        state = init_state(graph, cfg)
        state, history = fit(state, cfg, (x, y))
        best = max(row["train_acc"] for row in history[-5:])
        assert best >= 0.99, f"seed {seed}: {history[-3:]}"


def test_qdot_block_biased_product_matches_scalar_dot():
    # the trainer's product holds the accumulator's binary point at the
    # operands' full scale: it is the scalar dot of the same codes under
    # fsr-zeroed configs, rescaled by 2**(fsr_x + fsr_w - frac_bits)
    cfg = TrainConfig(weight_q=W5, activation_q=A4, gradient_q=G5)
    rng = np.random.default_rng(71)

    def coded(a, q, fsr):
        c = replace(q, fsr=fsr)
        return QuantizedOperand(logquant_array(a, c), c, c.base_frac_bits)

    acts = np.maximum(rng.normal(0, 2.0, size=(40, 36)), 0.0)
    weights = rng.normal(0, 0.3, size=(36, 8))
    grads = rng.normal(0, 2.0 ** -12, size=(8, 40))
    for x, w in ((coded(acts, A4, 3), coded(weights, W5, 0)),
                 (coded(grads, G5, -9), coded(acts, A4, 3))):
        got = _arithmetic(cfg).dot(x, w)
        cx0, cw0 = replace(x.cfg, fsr=0), replace(w.cfg, fsr=0)
        for i in (0, *rng.integers(0, x.codes.shape[0], size=3)):
            for j in range(w.codes.shape[1]):
                raw = dot_method2([LogCode.from_wire(int(c), cw0) for c in w.codes[:, j]],
                                  [LogCode.from_wire(int(c), cx0) for c in x.codes[i]],
                                  cw0, cx0, "linear", cfg.int_bits, cfg.frac_bits).raw
                want = math.ldexp(raw, x.cfg.fsr + w.cfg.fsr - cfg.frac_bits)
                assert got[i, j] == want
