"""Property-based tests on the probabilistic heads (GMM, C51)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn.autograd import Tensor
from repro.nn.heads import DistributionalHead, GMMHead, LOG_ACTION_HI, LOG_ACTION_LO
from repro.train import fastpath as fp


def make_gmm():
    return GMMHead(8, 3, np.random.default_rng(0))


def make_c51():
    return DistributionalHead(8, np.random.default_rng(1), n_atoms=11,
                              v_min=0.0, v_max=10.0)


class TestGMMProperties:
    @given(seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_log_prob_is_a_density(self, seed):
        gmm = make_gmm()
        # densities can exceed 1 pointwise but are bounded by the tightest
        # component: sigma >= exp(log_std_min) -> max density 1/(sigma*sqrt(2pi))
        rng = np.random.default_rng(seed)
        h = Tensor(rng.standard_normal((4, 8)))
        a = rng.uniform(LOG_ACTION_LO, LOG_ACTION_HI, size=4)
        lp = gmm.log_prob(h, a).data
        max_density = 1.0 / (np.exp(gmm.log_std_min) * np.sqrt(2 * np.pi))
        assert np.all(lp <= np.log(max_density) + 1e-9)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_empirical_mean_matches_clipped_mixture_mean(self, seed):
        gmm = make_gmm()
        rng = np.random.default_rng(seed)
        h = Tensor(rng.standard_normal((1, 8)).repeat(3000, axis=0))
        samples = np.log(gmm.sample(h, np.random.default_rng(seed + 1)))
        logits, means, log_std = gmm._split(Tensor(h.data[:1]))
        w = np.exp(logits.data[0] - logits.data[0].max())
        w /= w.sum()
        # analytic mean of clip(mixture): integrate the clipped variable
        grid = np.linspace(LOG_ACTION_LO - 6, LOG_ACTION_HI + 6, 8001)
        pdf = np.zeros_like(grid)
        for wk, mu, ls in zip(w, means.data[0], log_std.data[0]):
            sigma = np.exp(ls)
            pdf += wk * np.exp(-0.5 * ((grid - mu) / sigma) ** 2) / (
                sigma * np.sqrt(2 * np.pi)
            )
        clipped = np.clip(grid, LOG_ACTION_LO, LOG_ACTION_HI)
        expected = np.trapezoid(clipped * pdf, grid)
        assert abs(samples.mean() - expected) < 0.06

    def test_mode_is_most_likely_component_mean(self):
        gmm = make_gmm()
        h = Tensor(np.random.default_rng(3).standard_normal((5, 8)))
        modes = np.log(gmm.mode(h))
        logits, means, _ = gmm._split(h)
        comps = logits.data.argmax(axis=-1)
        expected = means.data[np.arange(5), comps]
        np.testing.assert_allclose(modes, np.clip(expected, LOG_ACTION_LO, LOG_ACTION_HI))


class TestC51Properties:
    @given(
        rewards=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
        gamma=st.floats(0.5, 0.999),
    )
    @settings(max_examples=20, deadline=None)
    def test_projection_mean_matches_bellman_mean(self, rewards, gamma):
        c51 = make_c51()
        # E[projected] == clip-adjusted r + gamma E[Z'] when nothing clips
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(11), size=3)
        r = np.asarray(rewards)
        target = c51.project_target(r, gamma, probs)
        projected_mean = (target * c51.atoms).sum(axis=1)
        bellman = np.clip(
            r[:, None] + gamma * c51.atoms[None, :], c51.v_min, c51.v_max
        )
        expected = (probs * bellman).sum(axis=1)
        np.testing.assert_allclose(projected_mean, expected, atol=1e-9)

    def test_projection_is_linear_in_probs(self):
        c51 = make_c51()
        rng = np.random.default_rng(2)
        p1 = rng.dirichlet(np.ones(11), size=2)
        p2 = rng.dirichlet(np.ones(11), size=2)
        r = np.array([1.0, -1.0])
        mix = 0.3 * p1 + 0.7 * p2
        t_mix = c51.project_target(r, 0.9, mix)
        t_sep = 0.3 * c51.project_target(r, 0.9, p1) + 0.7 * c51.project_target(
            r, 0.9, p2
        )
        np.testing.assert_allclose(t_mix, t_sep, atol=1e-12)

    @given(gamma=st.floats(0.0, 0.99))
    @settings(max_examples=10, deadline=None)
    def test_gamma_zero_collapses_to_reward(self, gamma):
        c51 = make_c51()
        probs = np.full((1, 11), 1.0 / 11)
        target = c51.project_target(np.array([5.0]), 0.0, probs)
        mean = (target * c51.atoms).sum()
        assert mean == pytest.approx(5.0)


# -- the training engine's vectorized projection (train/fastpath.py) --------

#: an atom grid: (n_atoms, v_min, v_max)
_grids = st.tuples(
    st.integers(2, 51),
    st.floats(-50.0, 50.0),
    st.floats(0.1, 100.0),
).map(lambda g: (g[0], g[1], g[1] + g[2]))


def _c51(grid):
    n_atoms, v_min, v_max = grid
    return DistributionalHead(
        4, np.random.default_rng(0), n_atoms=n_atoms, v_min=v_min, v_max=v_max
    )


class TestFastProjectionProperties:
    """Closed-form properties of ``fastpath.project_target`` (C51, Eq. 5)
    over rewards, discounts and atom grids."""

    @given(
        grid=_grids,
        rewards=st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=6),
        gamma=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    # 30 atoms over [0, 50]: v_max divides to 29.000000000000004, whose
    # ceil once spilled the top atom's mass into the next row
    @example(grid=(30, 0.0, 50.0), rewards=[0.0, 0.0], gamma=1.0, seed=0)
    @settings(max_examples=200, deadline=None)
    def test_every_row_has_unit_mass(self, grid, rewards, gamma, seed):
        head = _c51(grid)
        r = np.asarray(rewards)
        probs = np.random.default_rng(seed).dirichlet(
            np.ones(head.n_atoms), size=len(r)
        )
        target = fp.project_target(head, r, gamma, probs)
        assert target.shape == probs.shape
        assert np.all(target >= 0.0)
        np.testing.assert_allclose(target.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @given(
        grid=_grids,
        u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        gamma=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_mean_is_the_bellman_mean_when_nothing_clips(
        self, grid, u, gamma, seed
    ):
        head = _c51(grid)
        # r + gamma * z stays inside [v_min, v_max] for every atom z
        lo, hi = head.v_min * (1 - gamma), head.v_max * (1 - gamma)
        r = lo + np.asarray(u) * (hi - lo)
        probs = np.random.default_rng(seed).dirichlet(
            np.ones(head.n_atoms), size=len(r)
        )
        target = fp.project_target(head, r, gamma, probs)
        expected = r + gamma * (probs * head.atoms).sum(axis=1)
        scale = max(abs(head.v_min), abs(head.v_max))
        np.testing.assert_allclose(
            (target * head.atoms).sum(axis=1), expected,
            rtol=0, atol=1e-12 * scale * head.n_atoms,
        )

    @given(
        grid=_grids,
        reward=st.floats(-200.0, 200.0),
        gamma=st.floats(0.0, 1.0),
        atom=st.integers(0, 50),
    )
    @example(grid=(30, 0.0, 50.0), reward=0.0, gamma=1.0, atom=29)
    @settings(max_examples=200, deadline=None)
    def test_dirac_lands_on_at_most_two_adjacent_atoms(
        self, grid, reward, gamma, atom
    ):
        head = _c51(grid)
        probs = np.zeros((1, head.n_atoms))
        probs[0, atom % head.n_atoms] = 1.0
        target = fp.project_target(head, np.array([reward]), gamma, probs)[0]
        hit = np.flatnonzero(target)
        assert 1 <= len(hit) <= 2
        if len(hit) == 2:
            assert hit[1] - hit[0] == 1
