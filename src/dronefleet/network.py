"""Minimal dense Q-network trained by hand: forward pass, backprop, Adam.

Hidden layers are ReLU, the output layer is linear (one Q-value per
action). The only loss in play is squared error on the Q-value of the taken
action, so gradients are masked to that action.

A network may carry leading axes in front of every parameter: a stack of
same-shaped networks, one per agent, that every function here runs at once
with one batched matmul per layer. Each network of a stack computes exactly
what it computes alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class QNetwork:
    weights: list  # per layer, shape (..., fan_in, fan_out)
    biases: list  # per layer, shape (..., fan_out)

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[-2]] + [w.shape[-1] for w in self.weights]


def init_network(layer_sizes: list[int], rng: np.random.Generator) -> QNetwork:
    """Glorot-uniform weights, zero biases."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output sizes")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return QNetwork(weights=weights, biases=biases)


def copy_network(net: QNetwork) -> QNetwork:
    return QNetwork(weights=[w.copy() for w in net.weights], biases=[b.copy() for b in net.biases])


def stack_networks(nets: list[QNetwork]) -> QNetwork:
    """One network with a leading axis over `nets`, which share a shape."""
    return QNetwork(
        weights=[np.stack(ws) for ws in zip(*(n.weights for n in nets))],
        biases=[np.stack(bs) for bs in zip(*(n.biases for n in nets))],
    )


def unstack_network(net: QNetwork) -> list[QNetwork]:
    """The networks along the leading axis, as views into the stack."""
    return [
        QNetwork(weights=[w[i] for w in net.weights], biases=[b[i] for b in net.biases])
        for i in range(len(net.weights[0]))
    ]


def _forward_cached(net: QNetwork, x: np.ndarray):
    activations = [x]
    pre = []
    last = len(net.weights) - 1
    a = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b[..., None, :]
        pre.append(z)
        a = z if i == last else np.maximum(z, 0.0)
        activations.append(a)
    return pre, activations


def forward(net: QNetwork, x: np.ndarray) -> np.ndarray:
    """Q-values for one input (1-D) or a batch (..., B, in)."""
    a = np.asarray(x, dtype=np.float64)
    single = a.ndim == 1
    _, acts = _forward_cached(net, a[None, :] if single else a)
    return acts[-1][0] if single else acts[-1]


def batch_gradient(
    net: QNetwork, xs: np.ndarray, actions: np.ndarray, targets: np.ndarray
) -> tuple[list, list]:
    """Gradients of the mean masked squared error over a batch.

    xs (..., B, in), actions (..., B) int, targets (..., B). Only the
    Q-value of the taken action enters each sample's loss.
    """
    xs = np.asarray(xs, dtype=np.float64)
    taken = np.asarray(actions, dtype=np.intp)[..., None]
    targets = np.asarray(targets, dtype=np.float64)[..., None]
    batch = xs.shape[-2]
    pre, acts = _forward_cached(net, xs)
    q = acts[-1]

    g = np.zeros_like(q)
    error = 2.0 * (np.take_along_axis(q, taken, -1) - targets) / batch
    np.put_along_axis(g, taken, error, -1)

    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.biases)
    for layer in range(len(net.weights) - 1, -1, -1):
        grads_w[layer] = np.swapaxes(acts[layer], -1, -2) @ g
        grads_b[layer] = g.sum(axis=-2)
        if layer > 0:
            g = (g @ np.swapaxes(net.weights[layer], -1, -2)) * (pre[layer - 1] > 0.0)
    return grads_w, grads_b


@dataclass
class AdamState:
    """Adam moments for every parameter of one network (or stack),
    flattened in the order of the network's weights, then its biases."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))


def init_adam(net: QNetwork, lr: float = 0.001) -> AdamState:
    size = sum(p.size for p in (*net.weights, *net.biases))
    return AdamState(lr=lr, m=np.zeros(size), v=np.zeros(size))


def adam_step(adam: AdamState, net: QNetwork, grads_w: list, grads_b: list) -> QNetwork:
    """One bias-corrected Adam update, applied in place."""
    if len(grads_w) != len(net.weights) or len(grads_b) != len(net.biases):
        raise ValueError("gradient/parameter layer count mismatch")
    params = [*net.weights, *net.biases]
    grads = [*grads_w, *grads_b]
    if any(p.shape != g.shape for p, g in zip(params, grads)):
        raise ValueError("gradient shape mismatch")
    g = np.concatenate([np.ravel(x) for x in grads])
    if g.shape != adam.m.shape:
        raise ValueError("gradient size does not match the Adam state")
    adam.t += 1
    c1 = 1.0 - adam.beta1**adam.t
    c2 = 1.0 - adam.beta2**adam.t
    m, v = adam.m, adam.v
    m *= adam.beta1
    m += (1.0 - adam.beta1) * g
    v *= adam.beta2
    v += (1.0 - adam.beta2) * np.square(g)
    step = adam.lr * (m / c1) / (np.sqrt(v / c2) + adam.eps)
    offset = 0
    for p in params:
        p -= step[offset : offset + p.size].reshape(p.shape)
        offset += p.size
    return net
