"""Sage's neural architecture (Fig. 6), with the Fig. 12 ablation switches.

Bottom-up, the trunk is::

    input state
      -> Encoder (FC, LReLU, FC)
      -> GRU
      -> LayerNorm -> LReLU
      -> Encoder (FC, tanh)
      -> FC -> LReLU
      -> ResidualBlock x2

The policy attaches a :class:`~repro.nn.heads.GMMHead`; the critic appends
the action after the recurrent stage and attaches a
:class:`~repro.nn.heads.DistributionalHead` (C51).

Sizes are constructor parameters: the paper uses GRU 1024 / FC 256; the
defaults here are scaled for CPU-only training and are the *only* deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.collector.gr_unit import STATE_DIM
from repro.nn.autograd import Tensor, concat
from repro.nn.batched import batched_layer_norm, batched_linear, batched_sigmoid
from repro.nn.gru import GRU
from repro.nn.heads import (
    LOG_ACTION_HI,
    LOG_ACTION_LO,
    DistributionalHead,
    GMMHead,
)
from repro.nn.layers import LayerNorm, Linear, Module, ResidualBlock


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture hyper-parameters and the Fig. 12 ablation switches."""

    state_dim: int = STATE_DIM
    enc_dim: int = 64  # paper: 256
    gru_dim: int = 64  # paper: 1024
    n_components: int = 3  # GMM mixture components
    n_atoms: int = 21  # paper-style C51 would use 51
    v_min: float = 0.0
    v_max: float = 50.0
    use_gru: bool = True  # "no GRU" ablation
    use_post_encoder: bool = True  # "no Encoder" ablation
    use_gmm: bool = True  # "no GMM" ablation -> single Gaussian

    def paper_scale(self) -> "NetworkConfig":
        """The full-size configuration reported in the paper."""
        return replace(self, enc_dim=256, gru_dim=1024, n_atoms=51)


class _Trunk(Module):
    """Shared feature trunk of policy and critic."""

    def __init__(self, cfg: NetworkConfig, rng: np.random.Generator) -> None:
        self.cfg = cfg
        e = cfg.enc_dim
        self.enc1a = Linear(cfg.state_dim, e, rng)
        self.enc1b = Linear(e, e, rng)
        if cfg.use_gru:
            self.gru = GRU(e, cfg.gru_dim, rng)
            post_in = cfg.gru_dim
        else:
            self.gru = None
            post_in = e
        self.post_norm = LayerNorm(post_in)
        if cfg.use_post_encoder:
            self.enc2 = Linear(post_in, e, rng)
            fc_in = e
        else:
            self.enc2 = None
            fc_in = post_in
        self.fc = Linear(fc_in, e, rng)
        self.res1 = ResidualBlock(e, rng)
        self.res2 = ResidualBlock(e, rng)

    # -- stages ----------------------------------------------------------
    def pre(self, x: Tensor) -> Tensor:
        """Input encoder, before the recurrent stage: (B, D) -> (B, E)."""
        h = self.enc1a(x).leaky_relu(0.01)
        return self.enc1b(h)

    def initial_state(self, batch: int) -> Optional[Tensor]:
        if self.gru is None:
            return None
        return self.gru.initial_state(batch)

    def recurrent(self, pre: Tensor, h: Optional[Tensor]) -> Tuple[Tensor, Optional[Tensor]]:
        """One recurrent step; identity when the GRU is ablated."""
        if self.gru is None:
            return pre, None
        h_next = self.gru.step(pre, h)
        return h_next, h_next

    def post(self, g: Tensor) -> Tensor:
        """Post-recurrent stack: LayerNorm/LReLU, encoder/tanh, FC, res x2."""
        h = self.post_norm(g).leaky_relu(0.01)
        if self.enc2 is not None:
            h = self.enc2(h).tanh()
        h = self.fc(h).leaky_relu(0.01)
        h = self.res1(h)
        h = self.res2(h)
        return h

    # -- sequence helpers ---------------------------------------------------
    def features_seq(self, states: np.ndarray) -> List[Tensor]:
        """Run a (B, L, D) batch through the trunk; returns L feature tensors."""
        b, l, _ = states.shape
        h = self.initial_state(b)
        feats: List[Tensor] = []
        for t in range(l):
            pre = self.pre(Tensor(states[:, t, :]))
            g, h = self.recurrent(pre, h)
            feats.append(self.post(g))
        return feats

    def recurrent_seq(self, states: np.ndarray) -> List[Tensor]:
        """Like :meth:`features_seq` but stops before :meth:`post` — used by
        the critic, which injects the action between the stages."""
        b, l, _ = states.shape
        h = self.initial_state(b)
        outs: List[Tensor] = []
        for t in range(l):
            pre = self.pre(Tensor(states[:, t, :]))
            g, h = self.recurrent(pre, h)
            outs.append(g)
        return outs

    # -- fused sequence path ------------------------------------------------
    # The per-timestep helpers above build one autograd subgraph per (t,
    # layer) pair; at (B=16, L=8) that is hundreds of closure nodes per
    # train step and the interpreter dominates the math. The fused path
    # folds every non-recurrent stage over all timesteps at once and leaves
    # only the GRU's L hidden products sequential. Rows are t-major: row
    # ``t * B + i`` of the flat result is batch row i at timestep t.

    def recurrent_flat(self, states: np.ndarray) -> Tensor:
        """``(B, L, D)`` states -> ``(L*B, H)`` recurrent features, fused."""
        b, l, d = states.shape
        flat = np.ascontiguousarray(states.transpose(1, 0, 2)).reshape(l * b, d)
        pre = self.pre(Tensor(flat))
        if self.gru is None:
            return pre
        hs = self.gru.forward_seq(pre.reshape(l, b, pre.shape[-1]))
        return hs.reshape(l * b, self.gru.hidden_dim)

    def features_seq_fused(self, states: np.ndarray) -> Tensor:
        """``(B, L, D)`` states -> ``(L*B, E)`` trunk features, fused."""
        return self.post(self.recurrent_flat(states))


class SagePolicy(Module):
    """The policy network pi_theta(a | s): trunk + GMM head."""

    def __init__(self, cfg: NetworkConfig, rng: np.random.Generator) -> None:
        self.cfg = cfg
        self.trunk = _Trunk(cfg, rng)
        n_comp = cfg.n_components if cfg.use_gmm else 1
        self.head = GMMHead(cfg.enc_dim, n_comp, rng)

    # -- training-time API -------------------------------------------------
    def features_seq(self, states: np.ndarray) -> List[Tensor]:
        return self.trunk.features_seq(states)

    def features_seq_fused(self, states: np.ndarray) -> Tensor:
        """Fused ``(B, L, D) -> (L*B, E)`` features (t-major rows)."""
        return self.trunk.features_seq_fused(states)

    def log_prob(self, feat: Tensor, log_actions: np.ndarray) -> Tensor:
        return self.head.log_prob(feat, log_actions)

    def sample(self, feat: Tensor, rng: np.random.Generator) -> np.ndarray:
        return self.head.sample(feat, rng)

    def mode(self, feat: Tensor) -> np.ndarray:
        return self.head.mode(feat)

    # -- deployment-time API -------------------------------------------
    def initial_state(self, batch: int = 1) -> Optional[Tensor]:
        return self.trunk.initial_state(batch)

    def step(
        self, state: np.ndarray, h: Optional[Tensor]
    ) -> Tuple[Tensor, Optional[Tensor]]:
        """Single-step feature extraction for real-time inference."""
        pre = self.trunk.pre(Tensor(state[None, :]))
        g, h_next = self.trunk.recurrent(pre, h)
        return self.trunk.post(g), h_next


class SageCritic(Module):
    """The distributional critic Q_w(s, a): trunk + action inject + C51."""

    def __init__(self, cfg: NetworkConfig, rng: np.random.Generator) -> None:
        self.cfg = cfg
        self.trunk = _Trunk(cfg, rng)
        post_in = cfg.gru_dim if cfg.use_gru else cfg.enc_dim
        # action (log-ratio, 1 dim) joins after the recurrent stage
        self.action_mix = Linear(post_in + 1, post_in, rng)

        self.head = DistributionalHead(
            cfg.enc_dim, rng, n_atoms=cfg.n_atoms, v_min=cfg.v_min, v_max=cfg.v_max
        )

    def recurrent_seq(self, states: np.ndarray) -> List[Tensor]:
        """Per-step recurrent features (action-independent, reusable)."""
        return self.trunk.recurrent_seq(states)

    def recurrent_seq_fused(self, states: np.ndarray) -> Tensor:
        """Fused ``(B, L, D) -> (L*B, H)`` recurrent features (t-major).

        :meth:`q_features` accepts the flat result directly — the critic's
        per-row math is batch-shape agnostic."""
        return self.trunk.recurrent_flat(states)

    def q_features(self, rec: Tensor, log_actions: np.ndarray) -> Tensor:
        """Combine recurrent features with an action: (B, E) critic features."""
        a = Tensor(np.asarray(log_actions)[:, None])
        mixed = self.action_mix(concat([rec, a], axis=-1)).leaky_relu(0.01)
        return self.trunk.post(mixed)

    def q_logits(self, rec: Tensor, log_actions: np.ndarray) -> Tensor:
        return self.head.logits(self.q_features(rec, log_actions))

    def q_value(self, rec: Tensor, log_actions: np.ndarray) -> Tensor:
        return self.head.expected_value(self.q_features(rec, log_actions))


def log_action(actions: np.ndarray) -> np.ndarray:
    """Map cwnd ratios to the log space the heads operate in."""
    return np.log(np.clip(np.asarray(actions, dtype=np.float64), 1e-3, 1e3))


class FastPolicy:
    """Raw-numpy inference mirror of :class:`SagePolicy`.

    Real-time deployment runs the policy once per 20 ms tick; going through
    the autograd graph there wastes ~25 ms per call on op dispatch. This
    class snapshots the weights and evaluates the identical trunk + head
    with plain numpy — the repo's counterpart of the paper's frozen
    TensorFlow inference graph.
    """

    def __init__(self, policy: SagePolicy) -> None:
        self.cfg = policy.cfg
        p = {name: t.data for name, t in policy.named_parameters()}
        self._p = p
        self._use_gru = policy.cfg.use_gru
        self._use_enc2 = policy.cfg.use_post_encoder
        self._n_comp = policy.head.n_components
        self._log_std_min = policy.head.log_std_min
        self._log_std_max = policy.head.log_std_max

    @staticmethod
    def _lrelu(x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, x, 0.01 * x)

    def _lin(self, name: str, x: np.ndarray) -> np.ndarray:
        return x @ self._p[f"{name}.W"] + self._p[f"{name}.b"]

    def _ln(self, name: str, x: np.ndarray) -> np.ndarray:
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * self._p[f"{name}.gamma"] + self._p[
            f"{name}.beta"
        ]

    def initial_state(self) -> Optional[np.ndarray]:
        if not self._use_gru:
            return None
        return np.zeros(self._p["trunk.gru.wz.W"].shape[1])

    # The 1-D path below uses BLAS gemv. It stays beside the batched einsum
    # path because the two round differently: the batched kernel at N=1
    # picks a different ratio on more than half of all steps and is no faster,
    # while SageAgent, single-flow serving and the pretrained-checkpoint
    # gates are pinned to the gemv floats.

    def _forward_1d(
        self, state: np.ndarray, h: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Trunk + head projection for one normalized state ``(D,)``."""
        x = self._lin("trunk.enc1b", self._lrelu(self._lin("trunk.enc1a", state)))
        if self._use_gru:
            xh = np.concatenate([x, h])
            z = _sigmoid(self._lin("trunk.gru.wz", xh))
            r = _sigmoid(self._lin("trunk.gru.wr", xh))
            n = np.tanh(self._lin("trunk.gru.wn", np.concatenate([x, r * h])))
            h = (1.0 - z) * n + z * h
            g = h
        else:
            g = x
        y = self._lrelu(self._ln("trunk.post_norm", g))
        if self._use_enc2:
            y = np.tanh(self._lin("trunk.enc2", y))
        y = self._lrelu(self._lin("trunk.fc", y))
        for res in ("trunk.res1", "trunk.res2"):
            t = self._ln(f"{res}.norm", y)
            t = self._lrelu(self._lin(f"{res}.fc1", t))
            y = y + self._lin(f"{res}.fc2", t)
        return self._lin("head.proj", y), h

    def step(
        self, state: np.ndarray, h: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """One inference step: normalized state (D,) -> (mode ratio, h')."""
        out, h = self._forward_1d(state, h)
        k = self._n_comp
        logits = out[0:k]
        means = np.tanh(out[k : 2 * k]) * ((LOG_ACTION_HI - LOG_ACTION_LO) / 2.0)
        comp = int(np.argmax(logits))
        ratio = float(np.exp(np.clip(means[comp], LOG_ACTION_LO, LOG_ACTION_HI)))
        return ratio, h

    def sample_step(
        self,
        state: np.ndarray,
        h: Optional[np.ndarray],
        rng: np.random.Generator,
    ) -> Tuple[float, Optional[np.ndarray]]:
        """Stochastic inference step: draw the action from the mixture.

        This is the paper's deployment rule ("we obtain the output action
        a_t by sampling from pi(a|s)"); the stochasticity doubles as
        bandwidth probing.
        """
        out, h = self._forward_1d(state, h)
        k = self._n_comp
        logits = out[0:k]
        means = np.tanh(out[k : 2 * k]) * ((LOG_ACTION_HI - LOG_ACTION_LO) / 2.0)
        log_std = np.clip(out[2 * k : 3 * k], self._log_std_min, self._log_std_max)
        w = np.exp(logits - logits.max())
        w /= w.sum()
        comp = int(rng.choice(k, p=w))
        u = means[comp] + np.exp(log_std[comp]) * rng.standard_normal()
        ratio = float(np.exp(np.clip(u, LOG_ACTION_LO, LOG_ACTION_HI)))
        return ratio, h

    # -- batched serving path ------------------------------------------
    # One (N, 69) forward for N concurrent flows. Built on the einsum
    # kernels in repro.nn.batched, so each row's result is bitwise
    # identical for any batch size N >= 2 — the serving engine may merge
    # and split NN-tier batches of two or more freely without changing any
    # flow's decision stream. A flow alone in its tick's NN batch takes the
    # 1-D gemv path above instead, which differs by float rounding.

    def _blin(self, name: str, x: np.ndarray) -> np.ndarray:
        return batched_linear(x, self._p[f"{name}.W"], self._p[f"{name}.b"])

    def _bln(self, name: str, x: np.ndarray) -> np.ndarray:
        return batched_layer_norm(
            x, self._p[f"{name}.gamma"], self._p[f"{name}.beta"]
        )

    def initial_state_batch(self, n: int) -> Optional[np.ndarray]:
        if not self._use_gru:
            return None
        return np.zeros((n, self._p["trunk.gru.wz.W"].shape[1]))

    def _forward_batch(
        self, states: np.ndarray, h: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Trunk + head projection for a ``(N, D)`` batch of states."""
        x = self._blin(
            "trunk.enc1b", self._lrelu(self._blin("trunk.enc1a", states))
        )
        if self._use_gru:
            xh = np.concatenate([x, h], axis=-1)
            z = batched_sigmoid(self._blin("trunk.gru.wz", xh))
            r = batched_sigmoid(self._blin("trunk.gru.wr", xh))
            n = np.tanh(
                self._blin("trunk.gru.wn", np.concatenate([x, r * h], axis=-1))
            )
            h = (1.0 - z) * n + z * h
            g = h
        else:
            g = x
        y = self._lrelu(self._bln("trunk.post_norm", g))
        if self._use_enc2:
            y = np.tanh(self._blin("trunk.enc2", y))
        y = self._lrelu(self._blin("trunk.fc", y))
        for res in ("trunk.res1", "trunk.res2"):
            t = self._bln(f"{res}.norm", y)
            t = self._lrelu(self._blin(f"{res}.fc1", t))
            y = y + self._blin(f"{res}.fc2", t)
        return self._blin("head.proj", y), h

    def step_batch(
        self, states: np.ndarray, h: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Deterministic batched step: ``(N, D), (N, H) -> (N,) ratios, h'``."""
        out, h = self._forward_batch(states, h)
        k = self._n_comp
        logits = out[:, 0:k]
        means = np.tanh(out[:, k : 2 * k]) * ((LOG_ACTION_HI - LOG_ACTION_LO) / 2.0)
        comp = np.argmax(logits, axis=-1)
        picked = means[np.arange(len(means)), comp]
        ratios = np.exp(np.clip(picked, LOG_ACTION_LO, LOG_ACTION_HI))
        return ratios, h

    def sample_step_batch(
        self,
        states: np.ndarray,
        h: Optional[np.ndarray],
        rngs: Sequence[np.random.Generator],
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Stochastic batched step with one RNG per flow.

        The forward pass is batched; the (cheap) mixture draws loop over
        rows so each flow consumes its own RNG stream exactly as the 1-D
        ``sample_step`` would — a flow's sample sequence is independent of
        which other flows share its batch.
        """
        out, h = self._forward_batch(states, h)
        k = self._n_comp
        logits = out[:, 0:k]
        means = np.tanh(out[:, k : 2 * k]) * ((LOG_ACTION_HI - LOG_ACTION_LO) / 2.0)
        log_std = np.clip(
            out[:, 2 * k : 3 * k], self._log_std_min, self._log_std_max
        )
        w = np.exp(logits - logits.max(axis=-1, keepdims=True))
        w /= w.sum(axis=-1, keepdims=True)
        ratios = np.empty(len(states))
        for i, rng in enumerate(rngs):
            comp = int(rng.choice(k, p=w[i]))
            u = means[i, comp] + np.exp(log_std[i, comp]) * rng.standard_normal()
            ratios[i] = np.exp(np.clip(u, LOG_ACTION_LO, LOG_ACTION_HI))
        return ratios, h


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))
