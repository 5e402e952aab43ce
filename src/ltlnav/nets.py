"""Small feed-forward approximators with exact gradients and Adam.

Parameters live in one flat float64 vector per network so optimizer state
and checkpoints stay trivial.  Hidden layers use tanh; four output heads
cover the policy (categorical or diagonal gaussian), the two value
functions (scalar), and the nonnegative multiplier (softplus scalar).
Callers that run fixed weights many times unpack them into per-layer
views once, and may stack same-shaped value heads so that one pass
evaluates all of them.  Backward passes are hand-rolled reverse mode over
the activations the forward pass recorded, checked against finite
differences in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "JsonFields", "MlpSpec", "AdamState", "n_params", "init_params",
    "unpack", "forward", "forward_tape", "backward", "adam_init", "adam_step",
    "sample_categorical", "categorical_logp", "categorical_logp_grad",
    "sample_gaussian", "gaussian_logp", "gaussian_logp_grad",
    "mean_action", "softmax", "head_to_json", "head_from_json",
]

HEADS = ("categorical", "gaussian", "scalar", "nonneg")


class JsonFields:
    """Dataclass mixin: the JSON form is the fields in declaration order,
    with tuples written as lists.  from_json rejects keys that are not
    fields and leaves normalizing the values to __post_init__."""

    def to_json(self) -> dict:
        return {f.name: _json_native(getattr(self, f.name))
                for f in fields(self)}

    @classmethod
    def from_json(cls, d: dict):
        extra = set(d) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown {cls.__name__} keys {sorted(extra)}")
        return cls(**d)

    def _require_ints(self, *names: str) -> None:
        # a bool is an int to Python, never to a config
        for name in names:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")


def _json_native(value):
    if isinstance(value, tuple):
        return [_json_native(v) for v in value]
    return value


@dataclass(frozen=True)
class MlpSpec(JsonFields):
    in_dim: int
    hidden: tuple[int, ...]
    head: str
    out_dim: int = 1

    def __post_init__(self):
        if self.head not in HEADS:
            raise ValueError(f"unknown head {self.head!r}")
        if self.head in ("scalar", "nonneg") and self.out_dim != 1:
            raise ValueError(f"{self.head} head requires out_dim=1")
        if self.in_dim < 1 or self.out_dim < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("layer widths must be positive")
        object.__setattr__(self, "hidden", tuple(self.hidden))

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.in_dim, *self.hidden, self.out_dim)


def n_params(spec: MlpSpec) -> int:
    dims = spec.dims
    total = sum(o * i + o for i, o in zip(dims, dims[1:]))
    if spec.head == "gaussian":
        total += spec.out_dim
    return total


def _orthogonal(rng: np.random.Generator, rows: int, cols: int,
                gain: float) -> np.ndarray:
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def init_params(spec: MlpSpec, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal weights, zero biases; policy output layer scaled down so
    initial action distributions are near-uniform; log_std starts at -0.5."""
    dims = spec.dims
    chunks = []
    last = len(dims) - 2
    for li, (i, o) in enumerate(zip(dims, dims[1:])):
        if li == last and spec.head in ("categorical", "gaussian"):
            gain = 0.01
        else:
            gain = 1.0
        chunks.append(_orthogonal(rng, o, i, gain).ravel())
        chunks.append(np.zeros(o))
    if spec.head == "gaussian":
        chunks.append(np.full(spec.out_dim, -0.5))
    return np.concatenate(chunks)


def _unpack(spec: MlpSpec, params: np.ndarray):
    dims = spec.dims
    wts, bs, at = [], [], 0
    for i, o in zip(dims, dims[1:]):
        wts.append(params[at:at + o * i].reshape(o, i).T)
        at += o * i
        bs.append(params[at:at + o])
        at += o
    log_std = params[at:at + spec.out_dim] if spec.head == "gaussian" else None
    return wts, bs, log_std


def unpack(spec, params):
    """Flat params split into layers once, for forward to run many times:
    (wts, bs, log_std) of views, with wts[l] layer l's weight matrix
    transposed, (in, out), bs[l] its bias (out,) and log_std the gaussian
    head's (out_dim,), else None.

    With spec a tuple of MlpSpecs of one shape and params their flat
    vectors in that order, scalar and nonneg heads stack on a leading head
    axis, copied: wts[l] (K, in, out), bs[l] (K, 1, out).  Each stacked
    weight keeps the memory layout of its own head's view, so a stacked
    forward makes the same per-head BLAS calls, and gives the same bits,
    as running the heads one by one."""
    if isinstance(spec, MlpSpec):
        return _unpack(spec, params)
    if len({s.dims for s in spec}) != 1:
        raise ValueError("stacked heads differ in shape: "
                         f"{[s.dims for s in spec]}")
    if any(s.head not in ("scalar", "nonneg") for s in spec):
        raise ValueError("only scalar and nonneg heads stack")
    wts, bs, _ = zip(*(_unpack(s, p) for s, p in zip(spec, params)))
    return ([np.stack([wt.T for wt in layer]).swapaxes(-1, -2)
             for layer in zip(*wts)],
            [np.stack(layer)[:, None, :] for layer in zip(*bs)], None)


def _softplus(z):
    return np.logaddexp(0.0, z)


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def forward_tape(spec, params, x):
    """(head output, tape) for a (B, in_dim) batch of rows.  The output is
    forward's; the tape holds the per-layer transposed weights, the hidden
    activations hs and the pre-head values z, which backward consumes
    instead of recomputing them.

    params is the flat vector or what unpack made of it.  For heads
    stacked by unpack, spec is their tuple of MlpSpecs and the output has
    one row per head, each through its own head's transform."""
    stacked = not isinstance(spec, MlpSpec)
    in_dim = spec[0].in_dim if stacked else spec.in_dim
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != in_dim:
        raise ValueError(f"input shape {x.shape} is not (rows, in_dim "
                         f"{in_dim})")
    wts, bs, log_std = (_unpack(spec, params)
                        if isinstance(params, np.ndarray) else params)
    hs = [x]
    for wt, b in zip(wts[:-1], bs[:-1]):
        hs.append(np.tanh(hs[-1] @ wt + b))
    z = hs[-1] @ wts[-1] + bs[-1]
    if stacked:
        out = z[..., 0].copy()
        for k, s in enumerate(spec):
            if s.head == "nonneg":
                out[k] = _softplus(out[k])
    elif spec.head == "categorical":
        out = z
    elif spec.head == "gaussian":
        out = z, log_std.copy()
    else:
        out = _softplus(z[:, 0]) if spec.head == "nonneg" else z[:, 0]
    return out, (wts, hs, z)


def forward(spec, params, x):
    """Head output for a (B, in_dim) batch: categorical -> logits (B, n);
    gaussian -> (mean (B, n), log_std (n,)); scalar -> (B,); nonneg ->
    softplus values (B,); K stacked heads -> (K, B).  A single input is
    the batch x[None] of one row."""
    return forward_tape(spec, params, x)[0]


def backward(spec: MlpSpec, tape, d_out) -> np.ndarray:
    """Gradient of sum(d_out * output) with respect to the flat params,
    from the tape of a batched forward_tape call.

    d_out mirrors the head output: categorical -> (B, n) on logits;
    gaussian -> (d_mean (B, n), d_log_std (n,) or (B, n)); scalar/nonneg ->
    (B,) on the (post-softplus) value.
    """
    wts, hs, z = tape
    if spec.head == "categorical":
        dz = np.asarray(d_out, dtype=np.float64)
    elif spec.head == "gaussian":
        d_mean, d_log_std = d_out
        dz = np.asarray(d_mean, dtype=np.float64)
        d_log_std = np.asarray(d_log_std, dtype=np.float64).reshape(
            -1, spec.out_dim).sum(axis=0)
    else:
        dv = np.asarray(d_out, dtype=np.float64)
        dz = (dv * _sigmoid(z[:, 0]))[:, None] if spec.head == "nonneg" \
            else dv[:, None]
    grads = []
    for li in range(len(wts) - 1, -1, -1):
        grads.append((dz.T @ hs[li], dz.sum(axis=0)))
        if li > 0:
            dz = (dz @ wts[li].T) * (1.0 - hs[li] * hs[li])
    flat = []
    for dw, db in reversed(grads):
        flat.append(dw.ravel())
        flat.append(db)
    if spec.head == "gaussian":
        flat.append(d_log_std)
    return np.concatenate(flat)


# -- optimizer ----------------------------------------------------------------


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_init(size: int) -> AdamState:
    return AdamState(np.zeros(size), np.zeros(size))


_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState,
              lr: float = 3e-4) -> np.ndarray:
    state.t += 1
    state.m = _ADAM_BETA1 * state.m + (1 - _ADAM_BETA1) * grad
    state.v = _ADAM_BETA2 * state.v + (1 - _ADAM_BETA2) * grad * grad
    m_hat = state.m / (1 - _ADAM_BETA1 ** state.t)
    v_hat = state.v / (1 - _ADAM_BETA2 ** state.t)
    return params - lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


# -- action distributions -----------------------------------------------------


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def sample_categorical(logits: np.ndarray, rng: np.random.Generator):
    p = softmax(logits)
    action = int(rng.choice(len(p), p=p))
    return action, float(categorical_logp(logits, action))


def categorical_logp(logits: np.ndarray, actions) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(z).sum(axis=-1))
    if np.ndim(logits) == 1:
        return z[int(actions)] - log_z
    return z[np.arange(len(z)), np.asarray(actions, dtype=int)] - log_z


def categorical_logp_grad(logits: np.ndarray, actions) -> np.ndarray:
    """d logp / d logits: one-hot(action) - softmax(logits)."""
    grad = -softmax(logits)
    if np.ndim(logits) == 1:
        grad[int(actions)] += 1.0
    else:
        grad[np.arange(len(grad)), np.asarray(actions, dtype=int)] += 1.0
    return grad


def sample_gaussian(mean: np.ndarray, log_std: np.ndarray,
                    rng: np.random.Generator):
    std = np.exp(log_std)
    action = mean + std * rng.standard_normal(mean.shape)
    return action, float(gaussian_logp(mean, log_std, action))


def gaussian_logp(mean, log_std, actions) -> np.ndarray:
    std = np.exp(log_std)
    u = (np.asarray(actions) - mean) / std
    return (-0.5 * (u * u).sum(axis=-1) - np.sum(log_std)
            - 0.5 * mean.shape[-1] * math.log(2 * math.pi))


def gaussian_logp_grad(mean, log_std, actions):
    """(d logp / d mean, d logp / d log_std) per sample."""
    std = np.exp(log_std)
    u = (np.asarray(actions) - mean) / std
    return u / std, u * u - 1.0


def mean_action(spec: MlpSpec, head_out):
    """Deterministic action per row of a batched policy head output: the
    argmax of the logits as an int, or the gaussian mean (n,)."""
    if spec.head == "categorical":
        return head_out.argmax(axis=-1).tolist()
    if spec.head == "gaussian":
        return head_out[0]
    raise ValueError("mean_action is defined for policy heads only")


# -- checkpoint serialization -------------------------------------------------


def head_to_json(spec: MlpSpec, params: np.ndarray) -> dict:
    return {"spec": spec.to_json(), "params": [float(p) for p in params]}


def head_from_json(d: dict) -> tuple[MlpSpec, np.ndarray]:
    spec = MlpSpec.from_json(d["spec"])
    params = np.asarray(d["params"], dtype=np.float64)
    if params.size != n_params(spec):
        raise ValueError(f"checkpoint has {params.size} params, spec needs "
                         f"{n_params(spec)}")
    bad = int(np.count_nonzero(~np.isfinite(params)))
    if bad:
        raise ValueError(f"checkpoint has {bad} non-finite params")
    return spec, params
