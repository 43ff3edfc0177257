"""Minimal dense-network kernel: parameters, layers, forward/backward, Adam.

Everything runs in float64 on numpy.  Layers and nets are plain
dataclasses over :class:`Param` objects; placing the same layer in several
networks gives exact weight tying (one value array, one gradient
accumulator).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError

ACTIVATIONS = ("relu", "linear")

# Elements per Adam update block: two float64 scratch blocks (512 KiB) stay in
# L2 cache, so each element makes one trip through RAM per step.
BLOCK = 32768


class Param:
    """A trainable array with an accumulated gradient."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value, name=""):
        # C order: Adam updates ``value`` through a flat view, and a reshape
        # of a non-contiguous array would be a copy that loses the update.
        self.value = np.asarray(value, dtype=np.float64, order="C")
        self.grad = np.zeros_like(self.value)
        self.name = name

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Param({self.name or 'unnamed'}, shape={self.value.shape})"


def unique_params(params):
    """``params`` with repeats of the same object dropped, first-seen order."""
    return list({id(p): p for p in params}.values())


def glorot_uniform(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


@dataclass(eq=False)
class DenseLayer:
    """Fully connected layer ``act(x @ w + b)``."""

    w: Param
    b: Param
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.w.value.ndim != 2 or self.b.value.shape != (self.w.value.shape[1],):
            raise ShapeError("weight must be (in, out) and bias (out,)")

    @classmethod
    def create(cls, in_dim, out_dim, activation, rng, name=""):
        w = Param(glorot_uniform(rng, in_dim, out_dim), name=f"{name}.w")
        b = Param(np.zeros(out_dim), name=f"{name}.b")
        return cls(w, b, activation)

    @property
    def in_dim(self):
        return self.w.value.shape[0]

    @property
    def out_dim(self):
        return self.w.value.shape[1]

    def forward(self, x):
        z = x @ self.w.value + self.b.value
        if self.activation == "relu":
            return np.maximum(z, 0.0)
        return z

    def backward(self, x, out, grad_out):
        """Accumulate parameter grads; return gradient w.r.t. the input.

        ``x`` and ``out`` are the cached input and output of ``forward``.
        """
        if self.activation == "relu":
            grad_out = np.where(out > 0.0, grad_out, 0.0)
        self.w.grad += x.T @ grad_out
        self.b.grad += grad_out.sum(axis=0)
        return grad_out @ self.w.value.T


@dataclass(eq=False)
class DenseNet:
    """A stack of dense layers with cached-activation forward/backward."""

    layers: list

    def __post_init__(self):
        self.layers = list(self.layers)
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(f"layer dims do not chain: {a.out_dim} -> {b.in_dim}")

    @classmethod
    def build(cls, dims, activations, rng, name="net"):
        if len(activations) != len(dims) - 1:
            raise ShapeError("need one activation per layer")
        layers = [
            DenseLayer.create(dims[i], dims[i + 1], activations[i], rng, name=f"{name}.{i}")
            for i in range(len(activations))
        ]
        return cls(layers)

    @property
    def input_dim(self):
        return self.layers[0].in_dim

    def params(self):
        return unique_params(p for layer in self.layers for p in (layer.w, layer.b))

    def forward(self, x):
        """Activations per layer (input first) of a (batch, input_dim) matrix."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(f"input shape {x.shape} is not (batch, {self.input_dim})")
        acts = [x]
        for layer in self.layers:
            acts.append(layer.forward(acts[-1]))
        return acts

    def __call__(self, x):
        return self.forward(x)[-1]

    def backward(self, acts, grad_out):
        """Backprop through cached activations; returns grad w.r.t. input."""
        g = grad_out
        for i in range(len(self.layers) - 1, -1, -1):
            g = self.layers[i].backward(acts[i], acts[i + 1], g)
        return g


class Adam:
    """Adam optimizer with per-Param state (moments and step count)."""

    def __init__(self, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._state = {}
        self._a = np.empty(BLOCK)
        self._b = np.empty(BLOCK)

    def state_for(self, param):
        key = id(param)
        if key not in self._state:
            self._state[key] = {
                "m": np.zeros_like(param.value),
                "v": np.zeros_like(param.value),
                "t": 0,
            }
        return self._state[key]

    def step(self, params):
        """Apply one Adam update to each param from its accumulated grad.

        All-or-nothing: every grad is checked before any param moves, so a
        non-finite grad raises :class:`NumericalError` with no state changed.
        Listing one Param twice raises ``ValueError``.
        """
        seen = set()
        for p in params:
            if id(p) in seen:
                raise ValueError(f"{p.name or 'param'} listed twice in one Adam step")
            seen.add(id(p))
            if not np.isfinite(p.grad).all():
                raise NumericalError(f"non-finite gradient for {p.name or 'param'}")
        b1, b2 = self.beta1, self.beta2
        for p in params:
            st = self.state_for(p)
            st["t"] += 1
            c1 = 1.0 - b1 ** st["t"]
            c2 = 1.0 - b2 ** st["t"]
            value, grad = p.value.reshape(-1), p.grad.reshape(-1)
            m, v = st["m"].reshape(-1), st["v"].reshape(-1)
            # Blocked, in place: the same IEEE operations in the same order as
            # ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g**2;
            # value -= lr * (m/c1) / (sqrt(v/c2) + eps)``, so the bits match.
            for lo in range(0, value.size, BLOCK):
                hi = min(lo + BLOCK, value.size)
                g, mb, vb = grad[lo:hi], m[lo:hi], v[lo:hi]
                a, b = self._a[: hi - lo], self._b[: hi - lo]
                mb *= b1
                np.multiply(g, 1.0 - b1, out=a)
                mb += a
                vb *= b2
                np.multiply(g, g, out=a)
                a *= 1.0 - b2
                vb += a
                np.divide(vb, c2, out=a)
                np.sqrt(a, out=a)
                a += self.eps
                np.divide(mb, c1, out=b)
                b *= self.lr
                b /= a
                value[lo:hi] -= b

    def steps_taken(self, param):
        state = self._state.get(id(param))
        return state["t"] if state else 0


def zero_grads(params):
    for p in params:
        p.zero_grad()
