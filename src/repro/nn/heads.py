"""Output heads: the Gaussian-mixture policy and the C51 critic.

- :class:`GMMHead` parameterizes a mixture-of-Gaussians distribution over
  the (log of the) cwnd ratio, matching Fig. 6's last layer. The mixture
  keeps the offline learner from collapsing onto a single heuristic's action
  mode — the paper's "no GMM" ablation shows why that matters.
- :class:`DistributionalHead` is the categorical (C51-style) value
  distribution used to stabilize the Q update [Bellemare et al. 2017],
  referenced by Eq. 5's "distributional version of the Q update".
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.nn.autograd import Tensor, no_grad
from repro.nn.functional import softmax_np
from repro.nn.layers import Linear, Module

_LOG_2PI = math.log(2.0 * math.pi)

#: Action bounds in log-ratio space: cwnd can at most triple or third per tick.
LOG_ACTION_LO = math.log(1.0 / 3.0)
LOG_ACTION_HI = math.log(3.0)


class GMMHead(Module):
    """Mixture-of-Gaussians policy head over a scalar action.

    The network emits, per mixture component: a logit, a mean, and a log
    standard deviation. ``log_prob`` evaluates actions in *log-ratio* space;
    ``sample``/``mode`` return ratios ready for :meth:`TcpSender.set_cwnd`.
    """

    def __init__(
        self,
        in_dim: int,
        n_components: int,
        rng: np.random.Generator,
        log_std_min: float = -4.0,
        log_std_max: float = 0.0,
    ) -> None:
        if n_components < 1:
            raise ValueError("need at least one mixture component")
        self.n_components = n_components
        self.log_std_min = log_std_min
        self.log_std_max = log_std_max
        self.proj = Linear(in_dim, 3 * n_components, rng)

    def _split(self, h: Tensor) -> Tuple[Tensor, Tensor, Tensor]:
        out = self.proj(h)
        k = self.n_components
        logits = out[..., 0:k]
        means = out[..., k : 2 * k].tanh() * (
            (LOG_ACTION_HI - LOG_ACTION_LO) / 2.0
        )  # means live inside the action range, centered on ratio 1.0
        log_std = out[..., 2 * k : 3 * k].clip(self.log_std_min, self.log_std_max)
        return logits, means, log_std

    def log_prob(self, h: Tensor, log_action: np.ndarray) -> Tensor:
        """Log-density of ``log_action`` (shape (B,)) under the mixture."""
        logits, means, log_std = self._split(h)
        a = Tensor(np.asarray(log_action)[..., None])  # (B, 1)
        inv_var = (log_std * -2.0).exp()
        quad = (a - means) * (a - means) * inv_var * -0.5
        comp_logpdf = quad - log_std - 0.5 * _LOG_2PI
        mix = logits.log_softmax(axis=-1)
        return (mix + comp_logpdf).logsumexp(axis=-1)

    def sample(self, h: Tensor, rng: np.random.Generator) -> np.ndarray:
        """Draw action ratios (shape (B,)); no gradients."""
        with no_grad():
            logits, means, log_std = self._split(h)
        p = softmax_np(logits.data)
        b = p.shape[0]
        comps = np.array([rng.choice(self.n_components, p=p[i]) for i in range(b)])
        mu = means.data[np.arange(b), comps]
        sigma = np.exp(log_std.data[np.arange(b), comps])
        u = mu + sigma * rng.standard_normal(b)
        return np.exp(np.clip(u, LOG_ACTION_LO, LOG_ACTION_HI))

    def mode(self, h: Tensor) -> np.ndarray:
        """Deterministic action: the mean of the most likely component."""
        with no_grad():
            logits, means, _ = self._split(h)
        comps = logits.data.argmax(axis=-1)
        mu = means.data[np.arange(means.data.shape[0]), comps]
        return np.exp(np.clip(mu, LOG_ACTION_LO, LOG_ACTION_HI))


class DistributionalHead(Module):
    """Categorical value distribution over fixed atoms (C51).

    ``n_atoms`` support points span ``[v_min, v_max]``; the head outputs
    logits whose softmax is the value distribution. The projected Bellman
    update lives in :meth:`project_target`.
    """

    def __init__(
        self,
        in_dim: int,
        rng: np.random.Generator,
        n_atoms: int = 21,
        v_min: float = 0.0,
        v_max: float = 50.0,
    ) -> None:
        if n_atoms < 2 or v_max <= v_min:
            raise ValueError("need >= 2 atoms and v_max > v_min")
        self.n_atoms = n_atoms
        self.v_min = v_min
        self.v_max = v_max
        self.atoms = np.linspace(v_min, v_max, n_atoms)
        self.delta = (v_max - v_min) / (n_atoms - 1)
        self.proj = Linear(in_dim, n_atoms, rng)

    def logits(self, h: Tensor) -> Tensor:
        return self.proj(h)

    def expected_value(self, h: Tensor) -> Tensor:
        """E[Z] as a Tensor (B,) — the scalar Q value."""
        probs = self.logits(h).softmax(axis=-1)
        return (probs * Tensor(self.atoms)).sum(axis=-1)

    def project_target(
        self, rewards: np.ndarray, gamma: float, next_probs: np.ndarray
    ) -> np.ndarray:
        """Project ``r + gamma * Z'`` back onto the fixed atom support.

        ``rewards``: (B,), ``next_probs``: (B, n_atoms). Returns (B, n_atoms)
        target probabilities (constants — no gradient flows through them).
        """
        b = rewards.shape[0]
        tz = np.clip(
            rewards[:, None] + gamma * self.atoms[None, :], self.v_min, self.v_max
        )
        pos = (tz - self.v_min) / self.delta
        lower = np.floor(pos).astype(int)
        upper = np.ceil(pos).astype(int)
        target = np.zeros((b, self.n_atoms))
        lower_w = (upper - pos) + (lower == upper)  # mass stays put when equal
        upper_w = pos - lower
        for j in range(self.n_atoms):
            np.add.at(target, (np.arange(b), lower[:, j]), next_probs[:, j] * lower_w[:, j])
            np.add.at(target, (np.arange(b), upper[:, j]), next_probs[:, j] * upper_w[:, j])
        return target

    def cross_entropy(self, h: Tensor, target_probs: np.ndarray) -> Tensor:
        """Mean cross-entropy between target distribution and prediction."""
        logp = self.logits(h).log_softmax(axis=-1)
        return -(Tensor(target_probs) * logp).sum(axis=-1).mean()
