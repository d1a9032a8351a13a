"""Training-loop tests: optimizers, gradients, quantized steps, convergence."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from lognet import QuantizerConfig, nn, train
from lognet import io as lio
from lognet.nn import (LINQUANT, LOGQUANT, LayerSpec, ModelGraph, batchnorm_layer,
                       conv, fc, maxpool_layer, quantize_operand, relu_layer, walk)
from lognet.nn import BN_EPS, act_quant_layer, batchnorm_batch
from lognet.tensor import Tensor, im2col_array
from lognet.train import (
    OptimizerSpec,
    TrainConfig,
    TrainingDiverged,
    _backward_train,
    _forward_train,
    batchnorm_backward,
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


def test_one_step_on_gamma_beta_rows_is_a_gamma_and_a_beta_step():
    # the trainer steps each batchnorm layer's gamma/beta rows together; the
    # optimizers are elementwise, so over several steps that is bit for bit
    # a separate gamma step and beta step, moments and Adam's counter too
    rng = np.random.default_rng(131)
    for rule in (OptimizerSpec("sgd_momentum", lr=0.05, momentum=0.9),
                 OptimizerSpec("adam", lr=0.01)):
        rows = rng.normal(size=(4, 6))
        gamma, beta = rows[0].copy(), rows[1].copy()
        joint, mg, mb = {}, {}, {}
        for _ in range(5):
            dg, db = rng.normal(size=(2, 6))
            rows[:2] = optimizer_step(rows[:2], np.stack([dg, db]), joint, rule)
            gamma = optimizer_step(gamma, dg, mg, rule)
            beta = optimizer_step(beta, db, mb, rule)
            assert rows[0].tobytes() == gamma.tobytes()
            assert rows[1].tobytes() == beta.tobytes()
        assert joint.keys() == mg.keys() == mb.keys()
        for key, value in joint.items():
            if key == "t":
                assert value == mg["t"] == mb["t"] == 5
            else:
                assert value.tobytes() == np.stack([mg[key], mb[key]]).tobytes()


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
        num_g = numeric_grad(loss_fn, state.bn[i][0])
        num_b = numeric_grad(loss_fn, state.bn[i][1])
        assert np.abs(dgamma - num_g).max() < 1e-4
        assert np.abs(dbeta - num_b).max() < 1e-4


def test_batchnorm_backward_matches_fsum_reference():
    # dbeta and dgamma are float64 sums of m terms in an unspecified order,
    # and dx takes six roundings from them: each lies within the standard
    # error bound of a reference with fsum sums and dx's expression
    # evaluated exactly in rationals
    from fractions import Fraction

    rng = np.random.default_rng(79)
    u = 2.0**-53

    def gamma(n):
        return n * u / (1 - n * u)

    for shape in ((40, 3), (5, 4, 3, 3)):  # rank 2 and channel-last rank 4
        c = shape[-1]
        x = rng.normal(2.0, 3.0, size=shape)
        g = rng.normal(0.0, 1.0, size=shape)
        p = np.array([rng.normal(1.0, 0.5, c), rng.normal(0.0, 1.0, c),
                      np.zeros(c), np.ones(c)])
        _, xhat, _, var = batchnorm_batch(x, p)
        dx, dgamma, dbeta = batchnorm_backward(g, xhat, var, p[0])
        assert dx.shape == shape
        m = xhat.shape[0]
        g2, dx2 = g.reshape(m, c), dx.reshape(m, c)
        scale = p[0] / np.sqrt(var + BN_EPS)  # as the kernel computes it
        for j in range(c):
            gj, hj = g2[:, j], xhat[:, j]
            prods = gj * hj  # the rounded products both sides sum
            db_ref, dg_ref = math.fsum(gj), math.fsum(prods)
            # m - 1 additions against a correctly rounded sum
            db_bound = gamma(m) * math.fsum(np.abs(gj))
            dg_bound = gamma(m) * math.fsum(np.abs(prods))
            assert abs(dbeta[j] - db_ref) <= db_bound
            assert abs(dgamma[j] - dg_ref) <= dg_bound
            for i in range(m):
                exact = Fraction(scale[j]) * (Fraction(gj[i]) - (
                    Fraction(db_ref) + Fraction(hj[i]) * Fraction(dg_ref)) / m)
                # the sums' errors, scaled by 1/m, plus six roundings
                # (dgamma/m, xhat*, dbeta/m, +, g-, *scale) and the
                # reference's one, on |g| + |dbeta + xhat dgamma| / m
                t = (abs(db_ref) + abs(hj[i]) * abs(dg_ref)) / m
                bound = abs(scale[j]) * ((db_bound + abs(hj[i]) * dg_bound) / m
                                         + gamma(7) * (abs(gj[i]) + t))
                assert abs(dx2[i, j] - float(exact)) <= bound, (shape, i, j)


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
                        x = rng.integers(0, 16, size=(2, h, w, c)).astype(dtype)
                        cols, oh, ow = im2col_array(x, (k, k), stride, pad)
                        assert cols.shape == (2 * oh * ow, c * k * k)
                        assert cols.dtype == dtype and cols.T.flags["C_CONTIGUOUS"]
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
        assert bn[i].tobytes() == bn_c[i].tobytes()

    # only a training walk keeps caches
    assert _forward_train(state, x[:4], cfg, training=False)[1] is None
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
        out = walk(sgraph, xs, wq, True, bn, nn.exact_dot,
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
    collect: dict = {}
    for lo in range(0, 26, 8):
        stats: dict = {}
        walk(state.graph, x[lo:lo + 8], nn.weight_operands(state.graph, state.params), True,
             state.bn, nn.exact_dot, batch_stats=stats)
        for i, moments in stats.items():
            collect.setdefault(i, []).append(moments)
    assert len(next(iter(collect.values()))) == 4

    builds = []
    build = train.weight_operands
    monkeypatch.setattr(train, "weight_operands", lambda *a: builds.append(1) or build(*a))
    assert evaluate(state, cfg, x, y, batch_size=10) == want_acc
    assert len(builds) == 1
    reestimate_bn_stats(state, cfg, x)
    assert len(builds) == 2
    for i, stats in collect.items():
        assert state.bn[i][2].tobytes() == np.mean([m for m, _ in stats], axis=0).tobytes()
        assert state.bn[i][3].tobytes() == np.mean([v for _, v in stats], axis=0).tobytes()


def test_checkpoint_holds_the_quantizers_the_trainer_applies(monkeypatch, tmp_path):
    # activations unlike the graph's 4-bit nearest log templates (3-bit
    # floor log at fsr 2, then linear), weights quantized in both: the
    # re-read checkpoint gives each quantizer layer the config the trainer's
    # walk applied, tagged by its kind, and each conv/fc layer the config of
    # the trainer's weight operand
    rng = np.random.default_rng(113)
    x = np.abs(rng.normal(0, 1.0, size=(12, 1, 8, 8)))
    y = rng.integers(0, 3, size=12)
    for act_q, kind in ((QuantizerConfig("log", 3, False, 2, rounding="floor_msb"), LOGQUANT),
                        (QuantizerConfig("linear", 4, False, 1), LINQUANT)):
        cfg = TrainConfig(weight_q=W5, activation_q=act_q, gradient_q=G5,
                          optimizer=OptimizerSpec(lr=0.05), batch_size=6, epochs=1, seed=5)
        graph = train.build_small_cnn((1, 8, 8), (2, 3), 4, 3, act_bits=4)
        state, _ = fit(init_state(graph, cfg), cfg, (x, y))
        applied = []
        quantize = nn.quantize_operand
        monkeypatch.setattr(nn, "quantize_operand",
                            lambda v, c: applied.append(c) or quantize(v, c))
        _forward_train(state, x, cfg, training=False)
        monkeypatch.undo()
        path = tmp_path / "ckpt.lgn"
        lio.write_model(path, train.sync_graph_weights(state, cfg))
        ckpt = lio.read_model(path)
        # the walk quantizes the four weight matrices, then the activations
        weighted = [i for i, l in enumerate(ckpt.layers) if l.weight_shape() and l.qconfig]
        quant = [i for i, l in enumerate(ckpt.layers) if l.kind in (LOGQUANT, LINQUANT)]
        assert len(weighted) == 4 and len(quant) == 3 and len(applied) == 7
        assert [ckpt.layers[i].qconfig for i in weighted] == applied[:4]
        assert [ckpt.act_config(ckpt.layers[i]) for i in quant] == applied[4:]
        assert all(ckpt.layers[i].kind == kind for i in quant)


def test_checkpoint_batchnorm_rows_are_the_trainers(tmp_path):
    # each batchnorm layer's payload is the trainer's gamma/beta/mean/var
    # rows in float32, and a walk of the re-read checkpoint normalizes with
    # those values in float64
    rng = np.random.default_rng(137)
    x = np.abs(rng.normal(0, 1.0, size=(12, 1, 8, 8)))
    y = rng.integers(0, 3, size=12)
    cfg = TrainConfig(weight_q=W5, activation_q=A4, gradient_q=G5,
                      optimizer=OptimizerSpec(lr=0.05), batch_size=6, epochs=2, seed=5)
    state, _ = fit(init_state(train.build_small_cnn((1, 8, 8), (2, 3), 4, 3), cfg), cfg, (x, y))
    path = tmp_path / "ckpt.lgn"
    lio.write_model(path, train.sync_graph_weights(state, cfg))
    ckpt = lio.read_model(path)
    bn_layers = [i for i, l in enumerate(ckpt.layers) if l.kind == nn.BATCHNORM]
    assert sorted(state.bn) == bn_layers and len(bn_layers) == 3
    _, walked = nn._stored_operands(ckpt, nn.MODE_FLOAT)
    assert sorted(walked) == bn_layers
    for i in bn_layers:
        want = state.bn[i].astype(np.float32)
        # trained gamma/beta and re-estimated mean/var, not the identity
        assert (want[:2] != [[1.0], [0.0]]).any() and (want[2:] != [[0.0], [1.0]]).any()
        assert not ckpt.weights[i].is_quantized
        assert ckpt.weights[i].data.tobytes() == want.tobytes()
        assert walked[i].dtype == np.float64
        assert walked[i].tobytes() == want.astype(np.float64).tobytes()


def test_fit_reestimates_batchnorm_only_where_it_is_read(monkeypatch):
    # training walks normalize by batch statistics, so only the last epoch's
    # re-estimate is read unless test data or on_epoch read each epoch's;
    # skipping the others leaves the state and the history bit for bit
    rng = np.random.default_rng(139)
    x = np.abs(rng.normal(0, 1.0, size=(12, 1, 8, 8)))
    y = rng.integers(0, 3, size=12)
    cfg = TrainConfig(weight_q=W5, activation_q=A4, gradient_q=G5,
                      optimizer=OptimizerSpec(lr=0.05), batch_size=6, epochs=3, seed=5)
    calls: list[int] = []

    def counted(state, *args):
        calls.append(state.epoch)
        reestimate_bn_stats(state, *args)

    monkeypatch.setattr(train, "reestimate_bn_stats", counted)
    runs = []
    for kw in ({}, {"on_epoch": lambda row: None}, {"test_data": (x[:5], y[:5])}):
        calls.clear()
        graph = train.build_small_cnn((1, 8, 8), (2, 3), 4, 3)
        state, history = fit(init_state(graph, cfg), cfg, (x, y), **kw)
        runs.append((list(calls), state, [{k: r[k] for k in r if k != "test_acc"}
                                          for r in history]))
    assert [r[0] for r in runs] == [[3], [1, 2, 3], [1, 2, 3]]
    for _, state, history in runs[1:]:
        assert history == runs[0][2]
        for i, w in state.params.items():
            assert w.tobytes() == runs[0][1].params[i].tobytes()
        for i, rows in state.bn.items():
            assert rows.tobytes() == runs[0][1].bn[i].tobytes()


def test_init_state_without_weight_q_drops_weight_configs(tmp_path):
    # conv/fc weight configs in the graph, weight_q None: the trainer trains
    # in float, as on the same graph without the configs, and its checkpoint
    # holds no weight config
    rng = np.random.default_rng(117)
    x = np.abs(rng.normal(0, 1.0, size=(12, 1, 8, 8)))
    y = rng.integers(0, 3, size=12)
    plain = train.build_small_cnn((1, 8, 8), (2, 3), 4, 3)
    configured = ModelGraph(layers=[replace(l, qconfig=W5) if l.kind in (nn.CONV, nn.FC) else l
                                    for l in plain.layers])
    cfg = TrainConfig(activation_q=A4, gradient_q=G5, optimizer=OptimizerSpec(lr=0.05),
                      batch_size=6, epochs=1, seed=5)
    states = [fit(init_state(g, cfg), cfg, (x, y))[0] for g in (plain, configured)]
    for i, w in states[0].params.items():
        assert w.tobytes() == states[1].params[i].tobytes()
    path = tmp_path / "ckpt.lgn"
    lio.write_model(path, train.sync_graph_weights(states[1], cfg))
    assert all(l.qconfig is None for l in lio.read_model(path).layers
               if l.kind in (nn.CONV, nn.FC))


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


def test_a_dynamic_fsr_out_of_range_is_divergence():
    # a non-finite tensor has no fsr, and an fsr that places a quantizer's
    # grid outside float64 range cannot quantize: both mean training diverged
    with pytest.raises(TrainingDiverged, match="non-finite"):
        dynamic_gradient_fsr(np.array([1.0, np.inf]))
    cfg = TrainConfig(weight_q=W5, gradient_q=G5, seed=0)
    state = init_state(ModelGraph(layers=[fc(2, 2)], fsr=0), cfg)
    state.params[0] = np.full((2, 2), 1e300)
    with pytest.raises(TrainingDiverged, match="layer 0 weights at fsr 997"):
        train.recalibrate_weight_fsr(state, cfg)
    with pytest.raises(TrainingDiverged, match="a gradient at fsr 997"):
        train._quantize_grad(np.full((2, 2), -1e300), cfg)


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


def test_a_sqrt2_training_walk_reads_a_half_step_as_one_value():
    # code 1 of a 5-bit signed sqrt2 config at fsr 0 is level -7.5, which
    # the shift kernels read as 1.5 * 2**-8 (sqrt(2) * 2**-8 is 0.005524);
    # a training walk reads it so against a real input and against a coded
    # unit activation (4-bit unsigned at fsr 1, top code 2**0)
    w = Tensor(np.ones((1, 1), np.uint8), QuantizerConfig("log", 5, True, 0, base_frac_bits=1))
    one = np.ones((1, 1))
    want = 0.005859375
    assert np.ldexp(nn.shifted_input_matmul(one, w, 24, 28), -28)[0, 0] == want
    for layers in ([fc(1, 1)], [act_quant_layer("log", 4), fc(1, 1)]):
        state = train.TrainState(ModelGraph(layers, fsr=1), {}, {})
        cfg = TrainConfig(activation_q=A4 if len(layers) == 2 else None)
        assert train._walk(state, one, cfg, {len(layers) - 1: w.T}).tolist() == [[want]]
