"""Raw-numpy no-grad sequence kernels for the fused CRR training engine.

Half of a CRR train step never needs gradients: the Bellman targets (target
networks) and the advantage filter (Eq. 6's ``f``). Running those through
the autograd graph costs one Python closure per op per timestep; these
kernels evaluate the identical math on plain arrays — the training-time
counterpart of :class:`~repro.core.networks.FastPolicy` — but batched over
*all* ``(B, L)`` timesteps at once and with preallocated ``out=`` scratch
buffers so the hot loop does not churn the allocator.

Layout convention (shared with the fused autograd path in
:mod:`repro.core.networks`): sequence batches are flattened **t-major** —
row ``t * B + i`` of a ``(L*B, ·)`` array is batch row ``i`` at timestep
``t`` — so per-timestep slices are contiguous ``(B, ·)`` blocks.

Weights are read from ``module.named_parameters()`` (a dict of array
views). They are *not* cached across steps because Polyak updates rebind
``p.data`` to fresh arrays; within a phase the caller may fetch the dict
once with :func:`params_of` and pass it to every kernel via ``p=``.

Numerics: these kernels use BLAS ``@`` (throughput) and split each GRU
gate's weight into input/hidden halves, so results agree with the
per-timestep autograd path to float rounding, not bitwise — see
``docs/architecture.md`` ("Training engine") for the equivalence contract.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.functional import leaky_relu_np, sigmoid_np, softmax_np
from repro.nn.heads import LOG_ACTION_HI, LOG_ACTION_LO

__all__ = [
    "BufferPool",
    "params_of",
    "policy_features_seq",
    "critic_recurrent_seq",
    "critic_q_logits",
    "critic_q_values",
    "gmm_split",
    "gmm_cdf",
    "gmm_sample",
    "project_target",
]


class BufferPool:
    """Named scratch arrays, reallocated only when a shape changes."""

    def __init__(self) -> None:
        self._bufs: Dict[str, np.ndarray] = {}

    def get(self, tag: str, shape: Tuple[int, ...]) -> np.ndarray:
        buf = self._bufs.get(tag)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape, dtype=np.float64)
            self._bufs[tag] = buf
        return buf


def params_of(module) -> Dict[str, np.ndarray]:
    """Flat ``name -> ndarray`` view of a module's current parameters."""
    return {name: t.data for name, t in module.named_parameters()}


# --------------------------------------------------------------------------
# Trunk stages
# --------------------------------------------------------------------------


def _linear(
    p: Dict[str, np.ndarray],
    name: str,
    x: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    y = np.matmul(x, p[f"{name}.W"], out=out)
    y += p[f"{name}.b"]
    return y


def _layer_norm(
    p: Dict[str, np.ndarray], name: str, x: np.ndarray, out: np.ndarray
) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    np.subtract(x, mu, out=out)
    var = np.mean(out * out, axis=-1, keepdims=True)
    out /= np.sqrt(var + 1e-5)
    out *= p[f"{name}.gamma"]
    out += p[f"{name}.beta"]
    return out


def _pre_flat(
    p: Dict[str, np.ndarray], states: np.ndarray, bufs: BufferPool, tag: str
) -> np.ndarray:
    """Input encoder over all timesteps: ``(B, L, D) -> (L*B, E)`` t-major."""
    b, l, d = states.shape
    flat = np.ascontiguousarray(states.transpose(1, 0, 2)).reshape(l * b, d)
    e = p["trunk.enc1a.W"].shape[1]
    h = _linear(p, "trunk.enc1a", flat, out=bufs.get(f"{tag}.pre1", (l * b, e)))
    a = leaky_relu_np(h, out=bufs.get(f"{tag}.pre1a", (l * b, e)))
    return _linear(p, "trunk.enc1b", a, out=bufs.get(f"{tag}.pre2", (l * b, e)))


def _gru_seq(
    p: Dict[str, np.ndarray],
    pre_flat: np.ndarray,
    batch: int,
    bufs: BufferPool,
    tag: str,
) -> np.ndarray:
    """Fused GRU unroll over a t-major ``(L*B, E)`` input: ``-> (L*B, H)``.

    Gate input projections run as one matmul per gate for the whole
    sequence; only the ``(B, H) @ (H, H)`` hidden products stay sequential.
    """
    n, e = pre_flat.shape
    l = n // batch
    wz, wr, wn = p["trunk.gru.wz.W"], p["trunk.gru.wr.W"], p["trunk.gru.wn.W"]
    hdim = wz.shape[1]
    # all-timestep input projections, one gemm per gate
    xz = _linear_split(pre_flat, wz[:e], p["trunk.gru.wz.b"], bufs, f"{tag}.xz")
    xr = _linear_split(pre_flat, wr[:e], p["trunk.gru.wr.b"], bufs, f"{tag}.xr")
    xn = _linear_split(pre_flat, wn[:e], p["trunk.gru.wn.b"], bufs, f"{tag}.xn")
    wz_h, wr_h, wn_h = wz[e:], wr[e:], wn[e:]

    out = bufs.get(f"{tag}.rec", (n, hdim))
    z = bufs.get(f"{tag}.z", (batch, hdim))
    r = bufs.get(f"{tag}.r", (batch, hdim))
    g = bufs.get(f"{tag}.g", (batch, hdim))
    h = np.zeros((batch, hdim))
    for t in range(l):
        sl = slice(t * batch, (t + 1) * batch)
        np.matmul(h, wz_h, out=z)
        z += xz[sl]
        sigmoid_np(z, out=z)
        np.matmul(h, wr_h, out=r)
        r += xr[sl]
        sigmoid_np(r, out=r)
        r *= h  # r now holds r * h
        np.matmul(r, wn_h, out=g)
        g += xn[sl]
        np.tanh(g, out=g)
        # h' = (1 - z) * n + z * h, written into the output row block
        h_next = out[sl]
        np.multiply(z, h, out=h_next)
        z -= 1.0  # z - 1
        g *= z  # (z - 1) * n
        h_next -= g  # z*h - (z-1)*n = (1-z)*n + z*h
        h = h_next
    return out


def _linear_split(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, bufs: BufferPool, tag: str
) -> np.ndarray:
    out = bufs.get(tag, (x.shape[0], w.shape[1]))
    np.matmul(x, w, out=out)
    out += b
    return out


def _post_flat(
    p: Dict[str, np.ndarray], g: np.ndarray, bufs: BufferPool, tag: str
) -> np.ndarray:
    """Post-recurrent stack on any ``(N, ·)`` batch: ``-> (N, E)``.

    Activations ping-pong between paired scratch buffers instead of being
    applied in place: ``leaky_relu_np``'s two-op src->dst path is several
    times faster than its masked in-place path.
    """
    n = g.shape[0]
    y = _layer_norm(p, "trunk.post_norm", g, out=bufs.get(f"{tag}.ln", g.shape))
    y = leaky_relu_np(y, out=bufs.get(f"{tag}.lna", y.shape))
    if "trunk.enc2.W" in p:
        e = p["trunk.enc2.W"].shape[1]
        y = _linear(p, "trunk.enc2", y, out=bufs.get(f"{tag}.enc2", (n, e)))
        np.tanh(y, out=y)
    e = p["trunk.fc.W"].shape[1]
    y = _linear(p, "trunk.fc", y, out=bufs.get(f"{tag}.fc", (n, e)))
    y = leaky_relu_np(y, out=bufs.get(f"{tag}.fca", y.shape))
    for res in ("trunk.res1", "trunk.res2"):
        t = _layer_norm(p, f"{res}.norm", y, out=bufs.get(f"{tag}.{res}.ln", y.shape))
        t = _linear(p, f"{res}.fc1", t, out=bufs.get(f"{tag}.{res}.h", y.shape))
        t = leaky_relu_np(t, out=bufs.get(f"{tag}.{res}.ha", t.shape))
        y += _linear(p, f"{res}.fc2", t, out=bufs.get(f"{tag}.{res}.o", y.shape))
    return y


def _recurrent_flat(
    module,
    states: np.ndarray,
    bufs: BufferPool,
    tag: str,
    p: Optional[Dict[str, np.ndarray]] = None,
) -> np.ndarray:
    if p is None:
        p = params_of(module)
    pre = _pre_flat(p, states, bufs, tag)
    if "trunk.gru.wz.W" not in p:  # "no GRU" ablation
        return pre
    return _gru_seq(p, pre, states.shape[0], bufs, tag)


# --------------------------------------------------------------------------
# Policy side
# --------------------------------------------------------------------------


def policy_features_seq(
    policy,
    states: np.ndarray,
    bufs: BufferPool,
    tag: str = "pol",
    p: Optional[Dict[str, np.ndarray]] = None,
) -> np.ndarray:
    """Trunk features for a ``(B, L, D)`` batch: ``-> (L*B, E)`` t-major."""
    if p is None:
        p = params_of(policy)
    g = _recurrent_flat(policy, states, bufs, tag, p=p)
    return _post_flat(p, g, bufs, tag)


def gmm_split(
    policy, feats: np.ndarray, p: Optional[Dict[str, np.ndarray]] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Head projection -> (logits, means, log_std), each ``(N, k)``."""
    if p is None:
        p = params_of(policy)
    out = feats @ p["head.proj.W"] + p["head.proj.b"]
    k = policy.head.n_components
    logits = out[:, 0:k]
    means = np.tanh(out[:, k : 2 * k]) * ((LOG_ACTION_HI - LOG_ACTION_LO) / 2.0)
    log_std = np.clip(
        out[:, 2 * k : 3 * k], policy.head.log_std_min, policy.head.log_std_max
    )
    return logits, means, log_std


def gmm_cdf(logits: np.ndarray) -> np.ndarray:
    """Per-row mixture CDF for :func:`gmm_sample`'s ``cdf=`` fast path.

    Matches ``rng.choice``'s internal normalization (``cumsum`` then divide
    by the last column). Compute it once over all ``(N, k)`` rows and slice;
    it consumes no RNG, so precomputation cannot perturb the stream.
    """
    p = softmax_np(logits)
    cdf = np.cumsum(p, axis=1, out=p)
    cdf /= cdf[:, -1:]
    return cdf


def gmm_sample(
    logits: np.ndarray,
    means: np.ndarray,
    log_std: np.ndarray,
    rng: np.random.Generator,
    cdf: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Draw action ratios ``(B,)``, RNG-compatible with ``GMMHead.sample``.

    ``GMMHead.sample`` calls ``rng.choice(k, p=p[i])`` per row, which draws
    exactly one ``random()`` double and picks via
    ``cdf.searchsorted(u, side='right')``. One batched ``rng.random(B)``
    consumes the same bitstream in the same order, and the vectorized
    ``(cdf <= u).sum`` reproduces searchsorted-right — so both the stream
    *and* the selected components are bit-identical to the per-row loop
    (then one ``standard_normal(B)``, as in the original).

    Pass ``cdf=gmm_cdf(logits)[rows]`` to reuse one softmax/cumsum across
    repeated draws from the same rows (the ``m_samples`` filter loop)."""
    if cdf is None:
        cdf = gmm_cdf(logits)
    b = means.shape[0]
    u = rng.random(b)
    comps = (cdf <= u[:, None]).sum(axis=1)
    rows = np.arange(b)
    mu = means[rows, comps]
    sigma = np.exp(log_std[rows, comps])
    u = mu + sigma * rng.standard_normal(b)
    return np.exp(np.clip(u, LOG_ACTION_LO, LOG_ACTION_HI))


# --------------------------------------------------------------------------
# Critic side
# --------------------------------------------------------------------------


def critic_recurrent_seq(
    critic,
    states: np.ndarray,
    bufs: BufferPool,
    tag: str = "crit",
    p: Optional[Dict[str, np.ndarray]] = None,
) -> np.ndarray:
    """Action-independent recurrent features: ``(B, L, D) -> (L*B, H)``."""
    return _recurrent_flat(critic, states, bufs, tag, p=p)


def critic_q_logits(
    critic,
    rec: np.ndarray,
    log_actions: np.ndarray,
    bufs: BufferPool,
    tag: str = "crit",
    p: Optional[Dict[str, np.ndarray]] = None,
) -> np.ndarray:
    """Distributional logits for ``(N, H)`` features + ``(N,)`` actions."""
    if p is None:
        p = params_of(critic)
    n, hdim = rec.shape
    xa = bufs.get(f"{tag}.xa", (n, hdim + 1))
    xa[:, :hdim] = rec
    xa[:, hdim] = log_actions
    mixed = _linear(p, "action_mix", xa, out=bufs.get(f"{tag}.mix", (n, hdim)))
    mixed = leaky_relu_np(mixed, out=bufs.get(f"{tag}.mixa", mixed.shape))
    y = _post_flat(p, mixed, bufs, f"{tag}.q")
    return _linear(
        p, "head.proj", y, out=bufs.get(f"{tag}.logits", (n, critic.head.n_atoms))
    )


def critic_q_values(
    critic,
    rec: np.ndarray,
    log_actions: np.ndarray,
    bufs: BufferPool,
    tag: str = "crit",
    p: Optional[Dict[str, np.ndarray]] = None,
) -> np.ndarray:
    """Scalar expected Q values ``(N,)`` (softmax over atoms, then E[Z])."""
    logits = critic_q_logits(critic, rec, log_actions, bufs, tag, p=p)
    probs = softmax_np(logits, out=bufs.get(f"{tag}.probs", logits.shape))
    return probs @ critic.head.atoms


def project_target(
    head, rewards: np.ndarray, gamma: float, next_probs: np.ndarray
) -> np.ndarray:
    """Vectorized ``DistributionalHead.project_target`` (C51, Eq. 5).

    Replaces the per-atom ``np.add.at`` scatter loop with two flat
    ``bincount`` scatters over all ``(N, n_atoms)`` cells. Summation order
    differs from the reference loop, so the result matches to float
    rounding (covered by the engine's pinned equivalence tolerance), not
    bitwise.
    """
    n, k = next_probs.shape
    tz = np.clip(rewards[:, None] + gamma * head.atoms[None, :], head.v_min, head.v_max)
    # v_max can divide to a hair above the top index (e.g. 29.000000000000004
    # at 30 atoms over [0, 50]); its ceil would land in the next row's bins
    pos = np.minimum((tz - head.v_min) / head.delta, k - 1)
    lower = np.floor(pos).astype(np.int64)
    upper = np.ceil(pos).astype(np.int64)
    lower_w = next_probs * ((upper - pos) + (lower == upper))
    upper_w = next_probs * (pos - lower)
    rows = np.arange(n, dtype=np.int64)[:, None] * k
    target = np.bincount((rows + lower).ravel(), lower_w.ravel(), minlength=n * k)
    target += np.bincount((rows + upper).ravel(), upper_w.ravel(), minlength=n * k)
    return target.reshape(n, k)
