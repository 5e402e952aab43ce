"""Small feed-forward approximators with exact gradients and Adam.

Parameters live in one flat float64 vector per network so optimizer state
and checkpoints stay trivial.  Forward and backward passes run in the
dtype of the weights they are given, so float64 callers keep every bit
while the trainer runs its minibatch passes on float32 copies of the
float64 parameters.  Hidden layers use tanh; four output heads
cover the policy (categorical or diagonal gaussian), the two value
functions (scalar), and the nonnegative multiplier (softplus scalar).
Callers that run fixed weights many times unpack them into per-layer
views once, and may stack same-shaped value heads so that one pass
evaluates all of them on a stack of single rows, bit for bit as one pass
per head and row would.  Backward passes are hand-rolled reverse mode over
the activations the forward pass recorded, checked against finite
differences in the tests.
"""

from __future__ import annotations

import math
import numbers
import sys
from bisect import bisect_right
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "JsonFields", "MlpSpec", "AdamState", "n_params", "init_params",
    "unpack", "forward", "forward_tape", "backward", "adam_init", "adam_step",
    "categorical_cdf", "sample_categorical", "categorical_logp",
    "categorical_logp_grad", "sample_gaussian", "gaussian_logp",
    "gaussian_logp_grad", "mean_action", "softmax", "head_to_json",
    "head_from_json", "json_field", "json_object",
]

HEADS = ("categorical", "gaussian", "scalar", "nonneg")


def json_object(value, where: str) -> dict:
    """value, once it is a JSON object; a ValueError naming `where`, its
    place in the document, otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object, got "
                         f"{type(value).__name__}")
    return value


def json_field(d: dict, key: str, where: str):
    """d[key]; a ValueError naming `where`, the field's place in the
    document, when d has no such key."""
    if key not in d:
        raise ValueError(f"{where} is missing")
    return d[key]


class JsonFields:
    """Dataclass mixin: the JSON form is the fields in declaration order,
    with tuples written as lists.  from_json rejects a value that is not an
    object, naming it `where` (the class name by default), and keys that
    are not fields; it leaves normalizing the values to __post_init__,
    where configs call _check_scalars."""

    def to_json(self) -> dict:
        return {f.name: _json_native(getattr(self, f.name))
                for f in fields(self)}

    @classmethod
    def from_json(cls, d: dict, where: str | None = None):
        json_object(d, where or cls.__name__)
        extra = set(d) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown {cls.__name__} keys {sorted(extra)}")
        return cls(**d)

    def _check_scalars(self) -> None:
        """Every field annotated int, float, bool, tuple[int, ...] or
        tuple[str, ...] holds one (a list or tuple of ints or of strings for
        the last two; a plain string is no tuple).  A bool is never an int
        to a config; an int may stand for a float, which must be finite."""
        for f in fields(self):
            value = getattr(self, f.name)
            number = (isinstance(value, numbers.Real)
                      and not isinstance(value, bool))
            # annotations are postponed, so f.type is their text
            if f.type == "int":
                ok, kind = number and isinstance(value, int), "an int"
            elif f.type == "float":
                ok, kind = (number and abs(value) <= sys.float_info.max,
                            "a finite number")
            elif f.type == "bool":
                ok, kind = isinstance(value, bool), "a bool"
            elif f.type == "tuple[int, ...]":
                ok, kind = (isinstance(value, (list, tuple)) and all(
                    type(v) is int for v in value), "a list of ints")
            elif f.type == "tuple[str, ...]":
                ok, kind = (isinstance(value, (list, tuple)) and all(
                    isinstance(v, str) for v in value), "a list of strings")
            else:
                continue
            if not ok:
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")


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
        self._check_scalars()
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
    params = np.zeros(n_params(spec))
    wts, _, log_std = unpack(spec, params)
    for li, wt in enumerate(wts):
        policy_out = (li == len(wts) - 1
                      and spec.head in ("categorical", "gaussian"))
        wt.T[...] = _orthogonal(rng, *wt.T.shape, 0.01 if policy_out else 1.0)
    if log_std is not None:
        log_std[...] = -0.5
    return params


def unpack(spec, params):
    """Flat params split into layers once, for forward to run many times:
    (wts, bs, log_std) of views, with wts[l] layer l's weight matrix
    transposed, (in, out), bs[l] its bias (out,) and log_std the gaussian
    head's (out_dim,), else None.  These views are the one statement of
    the flat layout, which init_params and backward write through: per
    layer, the (out, in) weights row-major, then the bias; then log_std.

    With spec a tuple of MlpSpecs of one shape and params their flat
    vectors in that order, scalar and nonneg heads stack on a leading head
    axis, copied, with a row axis after it: wts[l] (K, 1, in, out), bs[l]
    (K, 1, 1, out).  Each stacked weight keeps the memory layout of its own
    head's view, so a stacked forward over C rows makes, for each (head,
    row) pair, the BLAS call of that head on that row alone, and gives the
    same bits as the K x C single-row passes."""
    if isinstance(spec, MlpSpec):
        dims = spec.dims
        wts, bs, at = [], [], 0
        for i, o in zip(dims, dims[1:]):
            wts.append(params[at:at + o * i].reshape(o, i).T)
            at += o * i
            bs.append(params[at:at + o])
            at += o
        log_std = (params[at:at + spec.out_dim]
                   if spec.head == "gaussian" else None)
        return wts, bs, log_std
    if len({s.dims for s in spec}) != 1:
        raise ValueError("stacked heads differ in shape: "
                         f"{[s.dims for s in spec]}")
    if any(s.head not in ("scalar", "nonneg") for s in spec):
        raise ValueError("only scalar and nonneg heads stack")
    wts, bs, _ = zip(*(unpack(s, p) for s, p in zip(spec, params)))
    return ([np.stack([wt.T for wt in layer]).swapaxes(-1, -2)[:, None]
             for layer in zip(*wts)],
            [np.stack(layer)[:, None, None, :] for layer in zip(*bs)], None)


def _softplus(z):
    return np.logaddexp(0.0, z)


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def forward_tape(spec, params, x):
    """(head output, tape) for a (B, in_dim) batch of rows.  The output is
    forward's; the tape holds the per-layer transposed weights, the hidden
    activations hs and the pre-head values z, which backward consumes
    instead of recomputing them.

    params is the flat vector or what unpack made of it; x is cast to
    its dtype, in which the whole pass runs.  For heads stacked by
    unpack, spec is their tuple of MlpSpecs, x holds C rows as (C, 1,
    in_dim), each its own one-row batch, and the output is (K, C): one
    row per head, each through its own head's transform."""
    stacked = not isinstance(spec, MlpSpec)
    in_dim = spec[0].in_dim if stacked else spec.in_dim
    wts, bs, log_std = (unpack(spec, params)
                        if isinstance(params, np.ndarray) else params)
    x = np.asarray(x, dtype=wts[0].dtype)
    row = (1, in_dim) if stacked else (in_dim,)
    if x.shape[1:] != row:
        raise ValueError(f"input shape {x.shape} is not (rows, "
                         f"{'1, ' if stacked else ''}in_dim {in_dim})")
    hs = [x]
    for wt, b in zip(wts[:-1], bs[:-1]):
        hs.append(np.tanh(hs[-1] @ wt + b))
    z = hs[-1] @ wts[-1] + bs[-1]
    if stacked:
        out = z[..., 0, 0].copy()
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
    softplus values (B,); K stacked heads on (C, 1, in_dim) rows -> (K,
    C).  A single input is the batch x[None] of one row."""
    return forward_tape(spec, params, x)[0]


def backward(spec: MlpSpec, tape, d_out) -> np.ndarray:
    """Gradient of sum(d_out * output) with respect to the flat params,
    from the tape of a batched forward_tape call, in the dtype of its
    weights.

    d_out mirrors the head output: categorical -> (B, n) on logits;
    gaussian -> (d_mean (B, n), d_log_std (n,) or (B, n)); scalar/nonneg ->
    (B,) on the (post-softplus) value.
    """
    wts, hs, z = tape
    dtype = wts[0].dtype
    grad = np.empty(n_params(spec), dtype=dtype)
    g_wts, g_bs, g_log_std = unpack(spec, grad)
    if spec.head == "categorical":
        dz = np.asarray(d_out, dtype=dtype)
    elif spec.head == "gaussian":
        d_mean, d_log_std = d_out
        dz = np.asarray(d_mean, dtype=dtype)
        np.asarray(d_log_std, dtype=dtype).reshape(
            -1, spec.out_dim).sum(axis=0, out=g_log_std)
    else:
        dv = np.asarray(d_out, dtype=dtype)
        dz = (dv * _sigmoid(z[:, 0]))[:, None] if spec.head == "nonneg" \
            else dv[:, None]
    for li in range(len(wts) - 1, -1, -1):
        np.matmul(dz.T, hs[li], out=g_wts[li].T)
        dz.sum(axis=0, out=g_bs[li])
        if li > 0:
            dz = (dz @ wts[li].T) * (1.0 - hs[li] * hs[li])
    return grad


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
              lr: float) -> np.ndarray:
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


def categorical_cdf(logits: np.ndarray) -> np.ndarray:
    """Per-row normalized CDF of softmax(logits), built as
    rng.choice(n, p=softmax(row)) builds it."""
    cdf = np.cumsum(softmax(logits), axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def sample_categorical(cdf_row, rng: np.random.Generator) -> int:
    """One action from a row of categorical_cdf (a sequence of floats):
    the same draw, and the same generator advance, as rng.choice(n, p=p)."""
    return bisect_right(cdf_row, rng.random())


def categorical_logp(logits: np.ndarray, actions) -> np.ndarray:
    """log softmax(logits)[b, actions[b]] per row of (B, n) logits."""
    z = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(z).sum(axis=-1))
    return z[np.arange(len(z)), np.asarray(actions, dtype=int)] - log_z


def categorical_logp_grad(logits: np.ndarray, actions) -> np.ndarray:
    """d logp / d logits per row: one-hot(action) - softmax(logits)."""
    grad = -softmax(logits)
    grad[np.arange(len(grad)), np.asarray(actions, dtype=int)] += 1.0
    return grad


def sample_gaussian(mean: np.ndarray, log_std: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    return mean + np.exp(log_std) * rng.standard_normal(mean.shape)


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


def head_from_json(d: dict,
                   where: str = "head") -> tuple[MlpSpec, np.ndarray]:
    spec = json_field(json_object(d, where), "spec", f"{where}.spec")
    spec = MlpSpec.from_json(spec, f"{where}.spec")
    params = json_field(d, "params", f"{where}.params")
    # a JSON number loads as an int or a float; a bool is neither here
    if type(params) is not list or not set(map(type, params)) <= {int, float}:
        raise ValueError(f"{where}.params must be a flat list of numbers")
    try:
        params = np.asarray(params, dtype=np.float64)
    except OverflowError:   # an int literal past the float range
        raise ValueError(f"{where}.params holds a number past float "
                         f"range") from None
    if params.size != n_params(spec):
        raise ValueError(f"checkpoint has {params.size} params, spec needs "
                         f"{n_params(spec)}")
    bad = int(np.count_nonzero(~np.isfinite(params)))
    if bad:
        raise ValueError(f"checkpoint has {bad} non-finite params")
    return spec, params
