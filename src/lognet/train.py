"""End-to-end quantized training of small CNNs.

One minibatch step quantizes the weights, runs the forward pass with
quantized activations, backpropagates with the error tensors themselves
quantized (so both backward products are exponent-sum dot products), and
applies the optimizer update to full-precision master weights.

Quantizers are straight-through: they apply in the forward pass and to
gradient tensors, but no quantizer derivative is modeled.  Setting any of
the three quantizer configs to None disables that quantization, down to a
plain float trainer when all are None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from .lognum import KIND_LOG, ConfigError, DomainError, QuantizerConfig
from .nn import (
    BATCHNORM,
    BN_EPS,
    CONV,
    FC,
    LINQUANT,
    LOGQUANT,
    MAXPOOL,
    RELU,
    SOFTMAX,
    Arithmetic,
    BatchNormParams,
    LayerSpec,
    ModelGraph,
    act_quant_layer,
    batchnorm_layer,
    bn_normalize,
    channel_axes,
    conv,
    fc,
    maxpool_layer,
    quantize_operand,
    relu_layer,
    softmax_array,
    walk,
)
from .tensor import Tensor, conv_output_size


class TrainingDiverged(ArithmeticError):
    """Loss or gradients left the finite range."""


# ---------------------------------------------------------------------------
# configuration and state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerSpec:
    """Update rule plus an optional step-decay schedule.

    ``lr_decay_epochs = k`` scales the rate by ``lr_decay_factor`` after
    every k epochs (0 keeps it constant).  Quantized gradients carry
    scale-pinned noise, so decaying the rate once converged is what keeps
    the net at its optimum instead of slowly unlearning it.
    """

    kind: str = "sgd_momentum"
    lr: float = 0.01
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr_decay_epochs: int = 0
    lr_decay_factor: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in ("sgd_momentum", "adam"):
            raise ConfigError(f"unknown optimizer {self.kind!r}")
        if self.lr_decay_epochs < 0:
            raise ConfigError("lr_decay_epochs must be non-negative")

    def lr_at(self, epoch: int) -> float:
        if not self.lr_decay_epochs:
            return self.lr
        return self.lr * self.lr_decay_factor ** (epoch // self.lr_decay_epochs)


@dataclass(frozen=True)
class TrainConfig:
    """Quantizer triple plus optimizer and loop settings.

    ``weight_q``/``gradient_q`` must be signed, ``activation_q`` unsigned
    (activations are quantized after ReLU).  Any of them may be None to run
    that tensor class in float.  Weight and gradient full-scale ranges are
    chosen dynamically (per epoch from max |W|, per tensor from max |g|), so
    the fsr fields of those configs are ignored.
    """

    weight_q: Optional[QuantizerConfig] = None
    activation_q: Optional[QuantizerConfig] = None
    gradient_q: Optional[QuantizerConfig] = None
    optimizer: OptimizerSpec = OptimizerSpec()
    batch_size: int = 100
    epochs: int = 10
    seed: int = 0
    int_bits: int = 24
    frac_bits: int = 28
    grad_fsr_floor: int = -20
    bn_momentum: float = 0.1

    def __post_init__(self) -> None:
        if self.activation_q is not None and self.activation_q.signed:
            raise ConfigError("activation quantizer must be unsigned")
        for name, q in (("weight", self.weight_q), ("gradient", self.gradient_q)):
            if q is not None and not q.signed:
                raise ConfigError(f"{name} quantizer must be signed")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be positive and epochs non-negative")


@dataclass
class TrainState:
    """Full-precision master parameters plus optimizer and loop state."""

    graph: ModelGraph
    params: dict[int, np.ndarray]
    bn: dict[int, BatchNormParams]
    moments: dict[str, dict] = field(default_factory=dict)
    weight_fsr: dict[int, int] = field(default_factory=dict)
    step: int = 0
    epoch: int = 0
    rng: np.random.Generator = field(default_factory=np.random.default_rng)


def he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_state(graph: ModelGraph, cfg: TrainConfig) -> TrainState:
    """Seeded He-style uniform init for conv/fc, identity batchnorm."""
    rng = np.random.default_rng(cfg.seed)
    params: dict[int, np.ndarray] = {}
    bn: dict[int, BatchNormParams] = {}
    for i, layer in enumerate(graph.layers):
        if layer.kind == CONV:
            fan = layer.in_channels * layer.kernel * layer.kernel
            params[i] = he_uniform(rng, (layer.out_channels, layer.in_channels,
                                         layer.kernel, layer.kernel), fan)
        elif layer.kind == FC:
            params[i] = he_uniform(rng, (layer.out_features, layer.in_features),
                                   layer.in_features)
        elif layer.kind == BATCHNORM:
            c = layer.channels
            bn[i] = BatchNormParams(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c))
    state = TrainState(graph=graph, params=params, bn=bn, rng=rng)
    recalibrate_weight_fsr(state, cfg)
    return state


def build_small_cnn(in_shape: tuple[int, int, int], conv_channels: tuple[int, int],
                    fc_units: int, classes: int, act_bits: int = 4,
                    act_fsr_offset: int = 0, base_frac_bits: int = 0,
                    rounding: str = "nearest_sqrt2") -> ModelGraph:
    """Conv-BN-ReLU-Quant blocks (x2, each pooled) into FC-BN-ReLU-Quant-FC."""
    c, h, w = in_shape
    c1, c2 = conv_channels
    layers = [
        conv(c1, c, 3, pad=1),
        batchnorm_layer(c1),
        relu_layer(),
        act_quant_layer(KIND_LOG, act_bits, act_fsr_offset, base_frac_bits, rounding),
        maxpool_layer(2),
        conv(c2, c1, 3, pad=1),
        batchnorm_layer(c2),
        relu_layer(),
        act_quant_layer(KIND_LOG, act_bits, act_fsr_offset, base_frac_bits, rounding),
        maxpool_layer(2),
        fc(fc_units, c2 * (h // 4) * (w // 4)),
        batchnorm_layer(fc_units),
        relu_layer(),
        act_quant_layer(KIND_LOG, act_bits, act_fsr_offset, base_frac_bits, rounding),
        fc(classes, fc_units),
    ]
    return ModelGraph(layers=layers, fsr=0)


# ---------------------------------------------------------------------------
# fsr policies
# ---------------------------------------------------------------------------


def ceil_log2(x: float) -> int:
    """Exact ceil(log2(x)) for positive floats."""
    if x <= 0 or not math.isfinite(x):
        raise DomainError(f"ceil_log2 requires a positive finite input, got {x!r}")
    m, e = math.frexp(x)
    return e - 1 if m == 0.5 else e


def dynamic_gradient_fsr(g: np.ndarray, floor: int = -20) -> int:
    """Per-tensor full-scale exponent: ceil(log2(max |g|)).

    All-zero tensors return the configured floor.
    """
    if g.size == 0:
        raise DomainError("cannot derive an fsr from an empty tensor")
    peak = float(np.abs(g).max())
    if peak == 0.0:
        return floor
    return max(ceil_log2(peak), floor)


def recalibrate_weight_fsr(state: TrainState, cfg: TrainConfig) -> None:
    """Refresh the per-layer weight fsr from the current max |W|."""
    if cfg.weight_q is None:
        state.weight_fsr = {}
        return
    for i, w in state.params.items():
        state.weight_fsr[i] = dynamic_gradient_fsr(w, cfg.grad_fsr_floor)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def optimizer_step(w: np.ndarray, g: np.ndarray, moments: dict,
                   rule: OptimizerSpec) -> np.ndarray:
    """Full-precision SGD-with-momentum or Adam update; mutates ``moments``."""
    if w.shape != g.shape:
        raise DomainError(f"weight/gradient shape mismatch: {w.shape} vs {g.shape}")
    if rule.kind == "sgd_momentum":
        v = moments.get("v")
        v = rule.momentum * v + g if v is not None else g.copy()
        moments["v"] = v
        return w - rule.lr * v
    t = moments.get("t", 0) + 1
    m = moments.get("m", np.zeros_like(g))
    v = moments.get("v", np.zeros_like(g))
    m = rule.beta1 * m + (1 - rule.beta1) * g
    v = rule.beta2 * v + (1 - rule.beta2) * g * g
    moments.update(t=t, m=m, v=v)
    mhat = m / (1 - rule.beta1**t)
    vhat = v / (1 - rule.beta2**t)
    return w - rule.lr * mhat / (np.sqrt(vhat) + rule.eps)


# ---------------------------------------------------------------------------
# quantization helpers for the training pass
# ---------------------------------------------------------------------------


def _quantize_signed(x: np.ndarray, q: Optional[QuantizerConfig], fsr: int):
    """Weight/gradient quantization at the given full-scale exponent
    (``nn.quantize_operand``); unquantized tensors stay float64."""
    return x if q is None else quantize_operand(x, replace(q, fsr=fsr))


def _act_config(graph: ModelGraph, q: QuantizerConfig, layer: LayerSpec) -> QuantizerConfig:
    """The trainer's activation quantizer on a quantizer layer's grid and fsr."""
    base = q if layer.qconfig is None else replace(
        q, base_frac_bits=layer.qconfig.base_frac_bits)
    return replace(base, fsr=q.fsr + layer.fsr_offset + graph.fsr)


def _arithmetic(cfg: TrainConfig) -> Arithmetic:
    """Block-biased products on the configured accumulator word."""
    return Arithmetic(cfg.int_bits, cfg.frac_bits, block_bias=True)


def col2im_array(g_cols: np.ndarray, in_shape: tuple[int, ...], kernel: int,
                 stride: int, pad: int) -> np.ndarray:
    """Scatter-add the im2col gradient back onto the input layout.

    g_cols: (N*oh*ow, C*kh*kw) ordered like ``im2col_array``'s rows; this
    is the adjoint of that lowering.
    """
    n, c, h, w = in_shape
    oh = conv_output_size(h, kernel, stride, pad)
    ow = conv_output_size(w, kernel, stride, pad)
    g6 = g_cols.reshape(n, oh, ow, c, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)
    buf = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    for i in range(kernel):
        for j in range(kernel):
            buf[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += g6[:, :, i, j]
    if pad:
        buf = buf[:, :, pad:-pad, pad:-pad]
    return buf


# ---------------------------------------------------------------------------
# forward/backward with caches
# ---------------------------------------------------------------------------


def _weight_operands(state: TrainState, cfg: TrainConfig) -> dict:
    """Every layer's (out, in) weight matrix as the products read it."""
    return {i: _quantize_signed(w.reshape(w.shape[0], -1), cfg.weight_q,
                                state.weight_fsr.get(i, 0))
            for i, w in state.params.items()}


def _forward_train(state: TrainState, x: np.ndarray, cfg: TrainConfig,
                   training: bool, bn_collect: Optional[dict] = None,
                   wq: Optional[dict] = None) -> tuple[np.ndarray, Optional[dict]]:
    """Layer walk returning logits and the caches backward needs.

    Training normalizes by batch statistics and folds them into the running
    ones, or, with ``bn_collect``, appends them there instead.  Only a
    training walk without ``bn_collect`` is followed by a backward pass, so
    only it keeps caches; every other walk returns None for them and pools
    without argmax indices.  ``wq`` is ``_weight_operands(state, cfg)``:
    callers that walk many batches over frozen weights build it once and
    pass it in; when None, the walk builds it.
    """
    g = state.graph
    if wq is None:
        wq = _weight_operands(state, cfg)
    q = cfg.activation_q
    act_config = None if q is None else partial(_act_config, g, q)
    stats: Optional[dict] = {} if training else None
    caches = {"wq": wq} if training and bn_collect is None else None
    logits = walk(g, x.astype(np.float64), wq, act_config, state.bn, _arithmetic(cfg),
                  batch_stats=stats, cache=caches)
    for i, (mean, var) in (stats or {}).items():
        if bn_collect is not None:
            bn_collect.setdefault(i, []).append((mean, var))
        else:
            p, m = state.bn[i], cfg.bn_momentum
            p.mean = (1 - m) * p.mean + m * mean
            p.var = (1 - m) * p.var + m * var
    return logits, caches


def _quantize_grad(g: np.ndarray, cfg: TrainConfig):
    if cfg.gradient_q is None:
        return g
    return _quantize_signed(g, cfg.gradient_q, dynamic_gradient_fsr(g, cfg.grad_fsr_floor))


def _backward_train(state: TrainState, caches: dict, g_out: np.ndarray,
                    cfg: TrainConfig) -> tuple[dict, dict]:
    """Walk the layers in reverse; returns (weight grads, bn grads)."""
    g = state.graph
    wq = caches["wq"]
    arith = _arithmetic(cfg)
    grads: dict[int, np.ndarray] = {}
    bn_grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    # below the first layer with parameters no gradient is needed
    first = min((i for i, l in enumerate(g.layers) if l.has_weights()),
                default=len(g.layers))
    gt = g_out
    for i in range(len(g.layers) - 1, first - 1, -1):
        layer = g.layers[i]
        kind = layer.kind
        if kind in (CONV, FC):
            # the forward product was rows (NP, K) times W^T (K, O); with the
            # output gradient g as (NP, O): g_W = g^T rows and g_rows = g W,
            # both with quantized operands
            cache = caches[i]
            if kind == CONV:
                gt = gt.transpose(0, 2, 3, 1).reshape(-1, layer.out_channels)
            gq = _quantize_grad(gt, cfg)
            grads[i] = arith.dot(gq.T, cache["x"]).reshape(state.params[i].shape)
            if i == first:
                continue
            g_rows = arith.dot(gq, wq[i])
            if kind == CONV:
                gt = col2im_array(g_rows, cache["in_shape"], layer.kernel,
                                  layer.stride, layer.pad)
            else:
                gt = g_rows.reshape(cache["in_shape"])
        elif kind == BATCHNORM:
            cache = caches[i]
            axes, shape = channel_axes(cache["x"])
            xhat = bn_normalize(cache["x"], cache["mean"], cache["var"])
            inv_std = 1.0 / np.sqrt(cache["var"] + BN_EPS)
            bns = state.bn[i]
            dgamma = (gt * xhat).sum(axis=axes)
            dbeta = gt.sum(axis=axes)
            m = gt.size // gt.shape[1] if gt.ndim == 4 else gt.shape[0]
            dxhat = gt * bns.gamma.reshape(shape)
            gt = (inv_std.reshape(shape) / m) * (
                m * dxhat
                - dxhat.sum(axis=axes).reshape(shape)
                - xhat * (dxhat * xhat).sum(axis=axes).reshape(shape)
            )
            bn_grads[i] = (dgamma, dbeta)
        elif kind == RELU:
            gt = gt * caches[i]["mask"]
        elif kind == MAXPOOL:
            gt = _maxpool_backward(gt, caches[i], layer.pool, layer.stride)
        elif kind in (LOGQUANT, LINQUANT):
            pass  # straight through
        elif kind == SOFTMAX:
            raise ConfigError("softmax layers belong in the loss, not the graph tail")
    return grads, bn_grads


def _maxpool_backward(gt: np.ndarray, cache: dict, k: int, stride: int) -> np.ndarray:
    idx = cache["idx"]
    n, c, h, w = cache["in_shape"]
    oh, ow = idx.shape[2], idx.shape[3]
    out = np.zeros((n, c, h, w))
    ni, ci, yi, xi = np.indices(idx.shape)
    hi = yi * stride + idx // k
    wi = xi * stride + idx % k
    np.add.at(out, (ni, ci, hi, wi), gt)
    return out


# ---------------------------------------------------------------------------
# the minibatch step and the epoch loop
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean loss and the gradient wrt the logits."""
    n = logits.shape[0]
    p = softmax_array(logits)
    eps = 1e-12
    loss = float(-np.log(p[np.arange(n), targets] + eps).mean())
    g = p.copy()
    g[np.arange(n), targets] -= 1.0
    return loss, g / n


def train_minibatch(state: TrainState, batch: tuple[np.ndarray, np.ndarray],
                    cfg: TrainConfig) -> tuple[TrainState, dict]:
    """One optimization step; returns the updated state and step metrics.

    The state is updated in place and also returned.  Raises
    ``TrainingDiverged`` on non-finite loss or gradients.
    """
    inputs, targets = batch
    logits, caches = _forward_train(state, inputs, cfg, training=True)
    loss, g_logits = softmax_cross_entropy(logits, targets)
    if not math.isfinite(loss):
        raise TrainingDiverged(f"non-finite loss at step {state.step}")
    grads, bn_grads = _backward_train(state, caches, g_logits, cfg)

    rule = replace(cfg.optimizer, lr=cfg.optimizer.lr_at(state.epoch))
    for i, gw in grads.items():
        if not np.isfinite(gw).all():
            raise TrainingDiverged(f"non-finite gradient in layer {i} at step {state.step}")
        moments = _moments_for(state, f"w{i}")
        state.params[i] = optimizer_step(state.params[i], gw, moments, rule)
    for i, (dgamma, dbeta) in bn_grads.items():
        bns = state.bn[i]
        bns.gamma = optimizer_step(bns.gamma, dgamma,
                                   _moments_for(state, f"g{i}"), rule)
        bns.beta = optimizer_step(bns.beta, dbeta,
                                  _moments_for(state, f"b{i}"), rule)
    for i, w in state.params.items():
        if not np.isfinite(w).all():
            raise TrainingDiverged(f"non-finite weights in layer {i} at step {state.step}")
    state.step += 1
    correct = int((logits.argmax(axis=1) == targets).sum())
    return state, {"loss": loss, "correct": correct, "count": len(targets)}


def _moments_for(state: TrainState, key: str) -> dict:
    return state.moments.setdefault(key, {})


def evaluate(state: TrainState, cfg: TrainConfig, inputs: np.ndarray,
             targets: np.ndarray, batch_size: int = 256) -> float:
    """Accuracy of the quantized-inference path with running batchnorm stats."""
    correct = 0
    wq = _weight_operands(state, cfg)
    for lo in range(0, len(targets), batch_size):
        xb = inputs[lo:lo + batch_size]
        logits, _ = _forward_train(state, xb, cfg, training=False, wq=wq)
        correct += int((logits.argmax(axis=1) == targets[lo:lo + batch_size]).sum())
    return correct / max(len(targets), 1)


def reestimate_bn_stats(state: TrainState, cfg: TrainConfig, inputs: np.ndarray,
                        max_batches: int = 8) -> None:
    """Refresh batchnorm running stats at the frozen (quantized) weights.

    Quantized nets shift their activation statistics discontinuously as
    weight codes flip between steps, so the momentum-averaged stats lag what
    the final weights produce.  A few deterministic forward passes over
    training data fix the mismatch before evaluation or checkpointing.
    """
    if not state.bn:
        return
    collect: dict[int, list] = {}
    wq = _weight_operands(state, cfg)
    for b in range(max_batches):
        lo = b * cfg.batch_size
        if lo >= len(inputs):
            break
        _forward_train(state, inputs[lo:lo + cfg.batch_size], cfg,
                       training=True, bn_collect=collect, wq=wq)
    for i, stats in collect.items():
        bns = state.bn[i]
        bns.mean = np.mean([m for m, _ in stats], axis=0)
        bns.var = np.mean([v for _, v in stats], axis=0)


def fit(state: TrainState, cfg: TrainConfig, train_data: tuple[np.ndarray, np.ndarray],
        test_data: Optional[tuple[np.ndarray, np.ndarray]] = None,
        on_epoch=None) -> tuple[TrainState, list[dict]]:
    """Epoch loop: shuffles, recalibrates weight fsr, logs one row per epoch."""
    inputs, targets = train_data
    history: list[dict] = []
    for _ in range(cfg.epochs):
        recalibrate_weight_fsr(state, cfg)
        order = state.rng.permutation(len(targets))
        losses, correct, seen = [], 0, 0
        for lo in range(0, len(order), cfg.batch_size):
            sel = order[lo:lo + cfg.batch_size]
            state, m = train_minibatch(state, (inputs[sel], targets[sel]), cfg)
            losses.append(m["loss"])
            correct += m["correct"]
            seen += m["count"]
        state.epoch += 1
        reestimate_bn_stats(state, cfg, inputs)
        row = {
            "step": state.step,
            "epoch": state.epoch,
            "loss": float(np.mean(losses)) if losses else math.nan,
            "train_acc": correct / max(seen, 1),
            "test_acc": (evaluate(state, cfg, *test_data) if test_data else math.nan),
        }
        history.append(row)
        if on_epoch is not None:
            on_epoch(row)
    return state, history


def sync_graph_weights(state: TrainState, cfg: Optional[TrainConfig] = None) -> ModelGraph:
    """Build a checkpoint graph holding the current parameters (float32).

    The training graph itself is left untouched.  The checkpoint bakes in
    everything inference needs to reproduce the trained quantization: the
    activation quantizer's fsr folds into the graph's global fsr, and when
    weights are quantized each conv/fc layer gets that quantizer at its
    current per-layer fsr.
    """
    src = state.graph
    fsr = src.fsr
    if cfg is not None and cfg.activation_q is not None:
        fsr += cfg.activation_q.fsr
    out = ModelGraph(layers=list(src.layers), fsr=fsr)
    for i, w in state.params.items():
        out.weights[i] = Tensor.from_real(w)
        if cfg is not None and cfg.weight_q is not None:
            out.layers[i] = replace(out.layers[i],
                                    qconfig=replace(cfg.weight_q, fsr=state.weight_fsr[i]))
    for i, bns in state.bn.items():
        out.weights[i] = Tensor.from_real(np.stack(
            [bns.gamma, bns.beta, bns.mean, bns.var]))
    return out
