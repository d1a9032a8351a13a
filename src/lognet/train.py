"""End-to-end quantized training of small CNNs.

One minibatch step quantizes the weights, runs the forward pass with
quantized activations, backpropagates with the error tensors themselves
quantized (so both backward products are exponent-sum dot products), and
applies the optimizer update to full-precision master weights.

Quantizers are straight-through: they apply in the forward pass and to
gradient tensors, but no quantizer derivative is modeled.  Setting any of
the three quantizer configs to None disables that quantization, down to a
plain float trainer when all are None.

The trainer's ``nn.ModelGraph`` holds the quantizers it applies, read by
the walk as ``nn.forward`` reads them, so a checkpoint of it
(``sync_graph_weights``) holds the quantizers it trained with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    ModelGraph,
    act_quant_layer,
    batchnorm_layer,
    conv,
    exact_dot,
    fc,
    maxpool_layer,
    pool_slices,
    quantize_operand,
    relu_layer,
    softmax_array,
    walk,
    weight_operands,
)
from .tensor import Tensor, col2im_array


class TrainingDiverged(ArithmeticError):
    """Loss or gradients left the finite range."""


# training batches a batchnorm re-estimate averages over
BN_REESTIMATE_BATCHES = 8


# ---------------------------------------------------------------------------
# configuration and state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerSpec:
    """Update rule plus an optional step-decay schedule.

    ``lr_decay_epochs = k`` scales the rate by ``lr_decay_factor``, in
    [0, 1], after every k epochs (0 keeps it constant).  Quantized
    gradients carry scale-pinned noise, so decaying the rate once converged
    is what keeps the net at its optimum instead of slowly unlearning it.
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
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)!r}")
        if not 0.0 <= self.lr_decay_factor <= 1.0:
            raise ConfigError(f"lr_decay_factor must be in [0, 1], got {self.lr_decay_factor!r}")
        if self.kind == "adam" and not self.eps > 0.0:
            raise ConfigError(f"adam's eps must be positive, got {self.eps!r}")

    def lr_at(self, epoch: int) -> float:
        if not self.lr_decay_epochs:
            return self.lr
        return self.lr * self.lr_decay_factor ** (epoch // self.lr_decay_epochs)


@dataclass(frozen=True)
class TrainConfig:
    """Quantizer triple plus optimizer and loop settings.

    ``weight_q``/``gradient_q`` must be signed, ``activation_q`` unsigned
    (activations are quantized after ReLU).  Any of them may be None to run
    that tensor class in float.  ``init_state`` and ``recalibrate_weight_fsr``
    write ``activation_q`` and ``weight_q`` into the graph, which the walk
    reads.  Weight and gradient full-scale ranges are chosen dynamically (per
    epoch from max |W|, per tensor from max |g|), so the fsr fields of those
    configs are ignored; their least, ``grad_fsr_floor``, must suit both
    (``ConfigError`` otherwise).  Every product is ``nn.exact_dot``: one
    float64 GEMM of the terms the shift kernels form, exact when both
    operands are coded.  Log configs too wide for that exact sum are refused
    at step 0 with ``ConfigError`` (on base 2, two 6-bit signed operands;
    see ``nn._check_exact_sum``).
    """

    weight_q: Optional[QuantizerConfig] = None
    activation_q: Optional[QuantizerConfig] = None
    gradient_q: Optional[QuantizerConfig] = None
    optimizer: OptimizerSpec = OptimizerSpec()
    batch_size: int = 100
    epochs: int = 10
    seed: int = 0
    grad_fsr_floor: int = -20

    def __post_init__(self) -> None:
        if self.activation_q is not None and self.activation_q.signed:
            raise ConfigError("activation quantizer must be unsigned")
        for name, q in (("weight", self.weight_q), ("gradient", self.gradient_q)):
            if q is None:
                continue
            if not q.signed:
                raise ConfigError(f"{name} quantizer must be signed")
            try:  # the fsr of an all-zero tensor, and the least one
                replace(q, fsr=self.grad_fsr_floor)
            except ConfigError as e:
                raise ConfigError(f"grad_fsr_floor {self.grad_fsr_floor!r} is outside the "
                                  f"{name} quantizer's fsr range: {e}") from None
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be positive and epochs non-negative")


@dataclass
class TrainState:
    """The trained graph, master parameters, optimizer and loop state.
    Keyed by layer index: conv/fc weights, batchnorm's float64 (4, C)
    gamma/beta/mean/var rows as checkpoints store them, and their moments."""

    graph: ModelGraph
    params: dict[int, np.ndarray]
    bn: dict[int, np.ndarray]
    moments: dict[int, dict] = field(default_factory=dict)
    step: int = 0
    epoch: int = 0
    rng: np.random.Generator = field(default_factory=np.random.default_rng)


def he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_state(graph: ModelGraph, cfg: TrainConfig) -> TrainState:
    """Seeded He-style uniform init for conv/fc, identity batchnorm, on a
    copy of ``graph`` whose quantizer layers apply ``cfg.activation_q`` (on
    each layer's grid, kind-tagged, its fsr added to the graph's) and whose
    conv/fc layers hold ``cfg.weight_q`` (``recalibrate_weight_fsr``), or no
    config when it is None."""
    rng = np.random.default_rng(cfg.seed)
    q = cfg.activation_q
    layers = list(graph.layers)
    params: dict[int, np.ndarray] = {}
    bn: dict[int, np.ndarray] = {}
    for i, layer in enumerate(layers):
        if layer.kind in (CONV, FC):
            shape = layer.weight_shape()
            params[i] = he_uniform(rng, shape, math.prod(shape[1:]))
            if cfg.weight_q is None:
                layers[i] = replace(layer, qconfig=None)
        elif layer.kind == BATCHNORM:
            bn[i] = np.outer([1.0, 0.0, 0.0, 1.0], np.ones(layer.channels))
        elif layer.kind in (LOGQUANT, LINQUANT) and q is not None:
            grid = q if layer.qconfig is None else layer.qconfig
            layers[i] = replace(layer, kind=LOGQUANT if q.kind == KIND_LOG else LINQUANT,
                                qconfig=replace(q, fsr=0,
                                                base_frac_bits=grid.base_frac_bits))
    fsr = graph.fsr + (q.fsr if q else 0)
    state = TrainState(ModelGraph(layers, fsr), params, bn, rng=rng)
    recalibrate_weight_fsr(state, cfg)
    return state


def build_small_cnn(in_shape: tuple[int, int, int], conv_channels: tuple[int, int],
                    fc_units: int, classes: int, act_bits: int = 4,
                    rounding: str = "nearest_sqrt2") -> ModelGraph:
    """Conv-BN-ReLU-Quant blocks (x2, each pooled) into FC-BN-ReLU-Quant-FC.

    The quantizer layers hold base-2 log activations at offset 0 from the
    graph's fsr.
    """
    c, h, w = in_shape
    c1, c2 = conv_channels
    act = act_quant_layer(KIND_LOG, act_bits, rounding=rounding)
    layers = [
        conv(c1, c, 3, pad=1),
        batchnorm_layer(c1),
        relu_layer(),
        act,
        maxpool_layer(2),
        conv(c2, c1, 3, pad=1),
        batchnorm_layer(c2),
        relu_layer(),
        act,
        maxpool_layer(2),
        fc(fc_units, c2 * (h // 4) * (w // 4)),
        batchnorm_layer(fc_units),
        relu_layer(),
        act,
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

    Zero tensors give ``floor``; non-finite ones raise ``TrainingDiverged``.
    """
    if g.size == 0:
        raise DomainError("cannot derive an fsr from an empty tensor")
    peak = float(np.abs(g).max())
    if peak == 0.0:
        return floor
    if not math.isfinite(peak):
        raise TrainingDiverged("a non-finite tensor has no fsr")
    return max(ceil_log2(peak), floor)


def _at_dynamic_fsr(q: QuantizerConfig, a: np.ndarray, cfg: TrainConfig, what: str):
    """``q`` at the dynamic fsr of ``a``.  An fsr that places ``q``'s grid
    outside float64 range means training diverged."""
    fsr = dynamic_gradient_fsr(a, cfg.grad_fsr_floor)
    try:
        return replace(q, fsr=fsr)
    except ConfigError as e:
        raise TrainingDiverged(f"{what} at fsr {fsr}: {e}") from None


def recalibrate_weight_fsr(state: TrainState, cfg: TrainConfig) -> None:
    """Give each conv/fc layer of the graph ``cfg.weight_q`` at the fsr of
    its current max |W|."""
    if cfg.weight_q is None:
        return
    layers = state.graph.layers
    for i, w in state.params.items():
        layers[i] = replace(layers[i], qconfig=_at_dynamic_fsr(
            cfg.weight_q, w, cfg, f"layer {i} weights"))


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
# forward/backward with caches
# ---------------------------------------------------------------------------


def _walk(state: TrainState, x: np.ndarray, cfg: TrainConfig, weights: dict,
          batch_stats: Optional[dict] = None, cache: Optional[dict] = None) -> np.ndarray:
    """The trainer's walk of ``x`` with the weight operands ``weights``."""
    return walk(state.graph, x.astype(np.float64), weights, cfg.activation_q is not None,
                state.bn, exact_dot, batch_stats=batch_stats, cache=cache)


def _forward_train(state: TrainState, x: np.ndarray, cfg: TrainConfig,
                   training: bool) -> tuple[np.ndarray, Optional[dict]]:
    """Logits of one walk and, for a training walk, the caches backward needs.

    The weight operands are the graph's (``nn.weight_operands``), so the
    walk quantizes what the graph says.  A training walk normalizes by each
    batch's statistics and leaves ``state.bn``'s mean and var alone, which
    only ``reestimate_bn_stats`` sets, so a bare ``train_minibatch`` does not
    move them.  An inference walk returns None for the caches and pools
    without argmax indices.
    """
    caches: Optional[dict] = {} if training else None
    logits = _walk(state, x, cfg, weight_operands(state.graph, state.params),
                   batch_stats={} if training else None, cache=caches)
    return logits, caches


def _quantize_grad(g: np.ndarray, cfg: TrainConfig):
    if cfg.gradient_q is None:
        return g
    return quantize_operand(g, _at_dynamic_fsr(cfg.gradient_q, g, cfg, "a gradient"))


def _backward_train(state: TrainState, caches: dict, g_out: np.ndarray,
                    cfg: TrainConfig) -> tuple[dict, dict]:
    """Walk the layers in reverse; returns (weight grads, gamma/beta row grads)."""
    g = state.graph
    grads: dict[int, np.ndarray] = {}
    bn_grads: dict[int, np.ndarray] = {}
    # below the first layer with parameters no gradient is needed
    first = min((i for i, l in enumerate(g.layers) if l.weight_shape()),
                default=len(g.layers))
    gt = g_out
    for i in range(len(g.layers) - 1, first - 1, -1):
        layer = g.layers[i]
        kind = layer.kind
        if kind in (CONV, FC):
            # the forward product was rows (NP, K) times W^T (K, O); with the
            # output gradient g as (NP, O), a free reshape of a conv's
            # channel-last gradient: g_W = g^T rows and g_rows = g W, both
            # with quantized operands
            cache = caches[i]
            gq = _quantize_grad(gt.reshape(-1, gt.shape[-1]), cfg)
            grads[i] = exact_dot(gq.T, cache["x"]).reshape(state.params[i].shape)
            if i == first:
                continue
            g_rows = exact_dot(gq, cache["w"])
            shape = cache["in_shape"]
            if kind == CONV:
                gt = col2im_array(g_rows, shape, layer.kernel, layer.stride, layer.pad)
            elif len(shape) == 4:  # the fc flattened a channel-last input as (C, H, W)
                n, h, w, c = shape
                gt = g_rows.reshape(n, c, h, w).transpose(0, 2, 3, 1)
            else:
                gt = g_rows
        elif kind == BATCHNORM:
            cache = caches[i]
            gt, dgamma, dbeta = batchnorm_backward(gt, cache["xhat"], cache["var"],
                                                   state.bn[i][0])
            bn_grads[i] = np.stack([dgamma, dbeta])
        elif kind == RELU:
            gt = gt * caches[i]["mask"]
        elif kind == MAXPOOL:
            gt = _maxpool_backward(gt, caches[i], layer.pool, layer.stride)
        elif kind in (LOGQUANT, LINQUANT):
            pass  # straight through
        elif kind == SOFTMAX:
            raise ConfigError("softmax layers belong in the loss, not the graph tail")
    return grads, bn_grads


def batchnorm_backward(g: np.ndarray, xhat: np.ndarray, var: np.ndarray,
                       gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dx, dgamma, dbeta) of batch-statistics batchnorm.

    ``g`` is the channel-last output gradient and ``xhat`` the (rows, C)
    normalized input ``nn.batchnorm_batch`` returned.  With m rows,
    dx = gamma / sqrt(var + eps) * (g - (dbeta + xhat * dgamma) / m), in
    one buffer; the per-channel sums are products with a ones vector.
    """
    g2 = g.reshape(xhat.shape)
    m = xhat.shape[0]
    ones = np.ones(m)
    dbeta = ones @ g2
    buf = g2 * xhat
    dgamma = ones @ buf
    np.multiply(xhat, dgamma / m, out=buf)
    buf += dbeta / m
    np.subtract(g2, buf, out=buf)
    buf *= gamma / np.sqrt(var + BN_EPS)
    return buf.reshape(g.shape), dgamma, dbeta


def _maxpool_backward(gt: np.ndarray, cache: dict, k: int, stride: int) -> np.ndarray:
    """Add each window's gradient at its max position (channel-last)."""
    idx = cache["idx"]
    out = np.zeros(cache["in_shape"])
    for pos, sl in pool_slices(k, stride, idx.shape[1], idx.shape[2]):
        out[sl] += gt * (idx == pos)
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
        state.params[i] = optimizer_step(state.params[i], gw,
                                         state.moments.setdefault(i, {}), rule)
    for i, g_rows in bn_grads.items():
        # the optimizers are elementwise: one step on the gamma/beta rows
        # is a gamma step and a beta step
        rows = state.bn[i]
        rows[:2] = optimizer_step(rows[:2], g_rows, state.moments.setdefault(i, {}), rule)
    for i, w in state.params.items():
        if not np.isfinite(w).all():
            raise TrainingDiverged(f"non-finite weights in layer {i} at step {state.step}")
    state.step += 1
    correct = int((logits.argmax(axis=1) == targets).sum())
    return state, {"loss": loss, "correct": correct, "count": len(targets)}


def evaluate(state: TrainState, cfg: TrainConfig, inputs: np.ndarray,
             targets: np.ndarray, batch_size: int = 256) -> float:
    """Accuracy of the quantized-inference path with the stored batchnorm
    statistics."""
    correct = 0
    weights = weight_operands(state.graph, state.params)
    for lo in range(0, len(targets), batch_size):
        logits = _walk(state, inputs[lo:lo + batch_size], cfg, weights)
        correct += int((logits.argmax(axis=1) == targets[lo:lo + batch_size]).sum())
    return correct / max(len(targets), 1)


def reestimate_bn_stats(state: TrainState, cfg: TrainConfig, inputs: np.ndarray) -> None:
    """Set batchnorm mean and var from the frozen (quantized) weights.

    Quantized nets shift their activation statistics discontinuously as
    weight codes flip between steps, so statistics averaged over training
    steps would lag what the final weights produce.  The mean of a few
    deterministic forward passes over training data (the first
    ``BN_REESTIMATE_BATCHES``) is what evaluation and checkpoints read;
    ``fit`` sets it after every epoch whose statistics are read.
    """
    if not state.bn or len(inputs) == 0:
        return
    weights = weight_operands(state.graph, state.params)
    size = cfg.batch_size
    stats = [{} for _ in range(0, min(len(inputs), BN_REESTIMATE_BATCHES * size), size)]
    for b, batch_stats in enumerate(stats):
        _walk(state, inputs[b * size:(b + 1) * size], cfg, weights, batch_stats=batch_stats)
    for i, rows in state.bn.items():
        rows[2] = np.mean([s[i][0] for s in stats], axis=0)
        rows[3] = np.mean([s[i][1] for s in stats], axis=0)


def fit(state: TrainState, cfg: TrainConfig, train_data: tuple[np.ndarray, np.ndarray],
        test_data: Optional[tuple[np.ndarray, np.ndarray]] = None,
        on_epoch=None) -> tuple[TrainState, list[dict]]:
    """Epoch loop: shuffles, recalibrates weight fsr, logs one row per epoch.

    Batchnorm statistics are re-estimated after the last epoch and after
    every epoch that ``test_data`` or ``on_epoch`` can read them in; the
    training walks normalize by batch statistics, so no other epoch reads
    them.
    """
    inputs, targets = train_data
    history: list[dict] = []
    for epoch in range(cfg.epochs):
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
        if test_data or on_epoch is not None or epoch == cfg.epochs - 1:
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


def sync_graph_weights(state: TrainState, cfg: TrainConfig) -> ModelGraph:
    """A checkpoint: a copy of the training graph, quantizers included,
    holding the current parameters as float32, or ``TrainingDiverged`` if
    float32 cannot hold them.  ``cfg`` is not read."""
    src = state.graph
    out = ModelGraph(layers=list(src.layers), fsr=src.fsr)
    for i, w in {**state.params, **state.bn}.items():
        with np.errstate(over="ignore"):
            out.weights[i] = Tensor.from_real(w)
        if not np.isfinite(out.weights[i].data).all():
            raise TrainingDiverged(f"layer {i}'s parameters overflow float32 "
                                   f"at step {state.step}")
    return out
