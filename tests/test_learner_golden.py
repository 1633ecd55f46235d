"""Golden digests of the CRR learner.

Sage's learner is one algorithm (CRR, Eq. 5/6), trained by one engine. The
goldens below pin what that engine produces on a synthetic pool, so a
refactor of the trainer classes cannot silently change a step:

- **Bit-exact** (:data:`GOLDEN_ENGINE`): SHA-256 prefixes of the per-step
  losses, the policy and critic parameters and the RNG state after
  :data:`STEPS` steps of ``FastCRRTrainer`` (exp filter, binary
  filter, a state mask, and each architecture switch turned off).
- **Engine contract** (:data:`GOLDEN_ABLATIONS`, :data:`GOLDEN_ONLINE_RL`):
  for the six Fig. 12 ablation variants trained by ``train_ablation`` and
  for :class:`OnlineRLTrainer` on a synthetic replay, the exact RNG state
  after :data:`STEPS` steps plus the per-step losses, which must agree
  within :data:`LOSS_RTOL` relative. These were recorded when both still
  trained on the per-timestep oracle (``tests/crr_oracle.py``), which
  draws the same random stream as the fused engine and matches its losses
  up to summation-order rounding.
- **Baselines on Sage's network** (:data:`GOLDEN_BC`, :data:`GOLDEN_INDIGO`,
  :data:`GOLDEN_AURORA`): the same RNG-state + per-step-loss form for
  :class:`BCTrainer` (directly and through each of the four
  ``BC_VARIANTS``), Indigo / Indigov2 on one short oracle pool, and
  Aurora / Genet for a few iterations on two short single-flow links.
  These were recorded on the per-timestep network path; the baselines now
  train on the fused one.

To re-record after an *intended* change, run this file as a script
(``PYTHONPATH=src python tests/test_learner_golden.py``) and paste its
output.
"""

import hashlib
import json
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import aurora, bc, indigo
from repro.baselines.online_rl import OnlineRLTrainer
from repro.collector.environments import EnvConfig
from repro.collector.gr_unit import STATE_DIM
from repro.collector.pool import PolicyPool, Trajectory
from repro.core import ablation
from repro.core.crr import CRRConfig
from repro.core.networks import NetworkConfig
from repro.train import engine

TINY = NetworkConfig(enc_dim=16, gru_dim=16, n_components=2, n_atoms=7)
CFG = CRRConfig(batch_size=8, seq_len=4)
STEPS = 6
METRICS = ("critic_loss", "policy_loss", "mean_f")
#: the fused-vs-reference engine contract (tests/test_train_engine.py)
LOSS_RTOL = 1e-6


def synthetic_pool(seed: int = 0, n_traj: int = 6, length: int = 24) -> PolicyPool:
    """A bandit-ish pool: reward is high when the action is near 1.1."""
    rng = np.random.default_rng(seed)
    pool = PolicyPool()
    for i in range(n_traj):
        actions = rng.uniform(0.6, 1.8, size=length)
        pool.add(
            Trajectory(
                scheme=f"s{i % 3}", env_id=f"e{i}", multi_flow=False,
                states=rng.standard_normal((length, STATE_DIM)) * 0.5,
                actions=actions,
                rewards=np.exp(-10.0 * (actions - 1.1) ** 2),
            )
        )
    return pool


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _net_sha(net) -> str:
    h = hashlib.sha256()
    for name, p in sorted(net.named_parameters()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.data, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _rng_sha(rng: np.random.Generator) -> str:
    return _sha(json.dumps(rng.bit_generator.state, sort_keys=True).encode())


@contextmanager
def _recording(module, name: str):
    """Swap ``module.<name>`` for a subclass that records every instance
    built inside the block, so a helper's trainer can be inspected."""
    base = getattr(module, name)
    made = []

    class Recording(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    setattr(module, name, Recording)
    try:
        yield made
    finally:
        setattr(module, name, base)


def _digest(trainer, losses) -> dict:
    return {
        "losses": _sha(np.asarray(losses, dtype=np.float64).tobytes()),
        "policy": _net_sha(trainer.policy),
        "critic": _net_sha(trainer.critic),
        "rng": _rng_sha(trainer.rng),
    }


#: FastCRRTrainer variants: (network config, CRR config, state mask)
_MASK = np.ones(STATE_DIM)
_MASK[::3] = 0.0
ENGINE_CASES = {
    "exp": (TINY, CFG, None),
    "binary": (TINY, replace(CFG, filter_type="binary"), None),
    "state_mask": (TINY, CFG, _MASK),
    "no-gru": (replace(TINY, use_gru=False), CFG, None),
    "no-encoder": (replace(TINY, use_post_encoder=False), CFG, None),
    "no-gmm": (replace(TINY, use_gmm=False), CFG, None),
}


def engine_golden(case: str) -> dict:
    net, cfg, mask = ENGINE_CASES[case]
    trainer = engine.FastCRRTrainer(
        synthetic_pool(), net_config=net, config=cfg, seed=0, state_mask=mask
    )
    losses = []
    for _ in range(STEPS):
        m = trainer.train_step()
        losses.append([m[k] for k in METRICS])
    return _digest(trainer, losses)


def ablation_golden(name: str) -> dict:
    """Train one Fig. 12 variant through ``train_ablation``; the trainer it
    builds is captured to read its RNG state and loss history."""
    with _recording(engine, "FastCRRTrainer") as made:
        ablation.train_ablation(
            synthetic_pool(), name, n_steps=STEPS, net_config=TINY,
            crr_config=CFG, seed=0,
        )
    (trainer,) = made
    return {
        "rng": _rng_sha(trainer.rng),
        "losses": [[trainer.history[k][i] for k in METRICS] for i in range(STEPS)],
    }


def online_rl_golden() -> dict:
    trainer = OnlineRLTrainer(
        environments=[], net_config=TINY, crr_config=CFG, seed=0
    )
    for traj in synthetic_pool().trajectories:
        trainer.replay.add(traj)
    losses = []
    for _ in range(STEPS):
        m = trainer.train_step()
        losses.append([m["critic_loss"], m["policy_loss"]])
    return {"rng": _rng_sha(trainer.rng), "losses": losses}


#: BC's pool: the schemes the ``bc-top`` / ``bc-top3`` filters keep and
#: drop, several trajectories per env so ``bcv2`` picks winners
_BC_SCHEMES = ("vegas", "cubic", "bbr2", "reno", "htcp", "westwood")


def bc_pool(seed: int = 1, n_traj: int = 12, length: int = 24) -> PolicyPool:
    rng = np.random.default_rng(seed)
    pool = PolicyPool()
    for i in range(n_traj):
        actions = rng.uniform(0.6, 1.8, size=length)
        pool.add(
            Trajectory(
                scheme=_BC_SCHEMES[i % len(_BC_SCHEMES)], env_id=f"e{i % 4}",
                multi_flow=False,
                states=rng.standard_normal((length, STATE_DIM)) * 0.5,
                actions=actions,
                rewards=rng.uniform(0.0, 1.0, size=length),
            )
        )
    return pool


def _bc_result(trainer) -> dict:
    return {"rng": _rng_sha(trainer.rng), "losses": list(trainer.history)}


def bc_golden(variant: str) -> dict:
    """``"trainer"`` is :class:`BCTrainer` on the pool directly; the other
    cases train one of ``BC_VARIANTS`` through ``train_bc_variant``."""
    if variant == "trainer":
        trainer = bc.BCTrainer(
            bc_pool(), net_config=TINY, batch_size=8, seq_len=4, seed=0
        )
        trainer.train(STEPS)
        return _bc_result(trainer)
    with _recording(bc, "BCTrainer") as made:
        bc.train_bc_variant(
            bc_pool(), variant, n_steps=STEPS, net_config=TINY, seed=0
        )
    (trainer,) = made
    return _bc_result(trainer)


#: short links for the baselines that roll out in the simulator
_FLAT = EnvConfig("g-flat", "flat", bw_mbps=12.0, min_rtt=0.04,
                  buffer_bdp=1.0, duration=2.0)
_STEP = EnvConfig("g-step", "step", bw_mbps=12.0, min_rtt=0.04,
                  buffer_bdp=2.0, step_m=2.0, step_at=1.0, duration=2.0)
_MULTI = EnvConfig("g-multi", "flat", bw_mbps=12.0, min_rtt=0.04,
                   buffer_bdp=2.0, n_competing_cubic=1,
                   competitor_head_start=0.5, duration=2.0)


def indigo_golden(multi_flow: bool) -> dict:
    with _recording(indigo, "BCTrainer") as made:
        indigo.train_indigo(
            [_FLAT, _MULTI], multi_flow=multi_flow, n_steps=STEPS,
            net_config=TINY, seed=0,
        )
    (trainer,) = made
    return _bc_result(trainer)


AURORA_ITERS = 3


def aurora_golden(curriculum: bool) -> dict:
    trainer = aurora.AuroraTrainer(
        [_STEP, _FLAT], net_config=TINY, curriculum=curriculum, seed=0
    )
    losses = [trainer.train_iteration() for _ in range(AURORA_ITERS)]
    return {"rng": _rng_sha(trainer.rng), "losses": losses}


GOLDEN_ENGINE = {'binary': {'critic': 'eebbd1a15db255ec',
            'losses': 'd3f2d4553e9247ef',
            'policy': '0bf0175c0b2c203d',
            'rng': 'f1b1d1c22be20fe0'},
 'exp': {'critic': 'af9ea26d7d0702d8',
         'losses': 'b98f4666685f0c55',
         'policy': '758caae43667fa2b',
         'rng': 'f1b1d1c22be20fe0'},
 'no-encoder': {'critic': 'f74088899aa7bd62',
                'losses': '340d744813d34ce7',
                'policy': '51afa3b2131511d8',
                'rng': '6bca2a1606a67754'},
 'no-gmm': {'critic': 'ba68703b4e9b8e96',
            'losses': '16cb87dc54f30356',
            'policy': '4a9afffb9fe76a70',
            'rng': '2c534251f256c55a'},
 'no-gru': {'critic': '4896b88dbc0f1066',
            'losses': '776ba7e6bc8e2bbd',
            'policy': 'ede182605e20bc32',
            'rng': 'f441089aba7122d7'},
 'state_mask': {'critic': 'f2581f3220345d3e',
                'losses': '92c1d6057544864f',
                'policy': '3b19d15b97b36a3d',
                'rng': 'f1b1d1c22be20fe0'}}

GOLDEN_ABLATIONS = {'no-encoder': {'losses': [[3.5196269793831023,
                            10.569027003785235,
                            6.7809469795425485],
                           [3.815012978736613,
                            10.674531839713747,
                            7.216391308883736],
                           [2.7063063792194852,
                            6.162138843909213,
                            3.4524720464049348],
                           [3.8134338777312307,
                            11.542172384805848,
                            4.044259316839849],
                           [2.730268555278785,
                            19.162058558151728,
                            7.694473352094228],
                           [2.828909190513747,
                            14.708502424962301,
                            6.592578893621246]],
                'rng': '6bca2a1606a67754'},
 'no-gmm': {'losses': [[2.912414625702052,
                        10.559330575208197,
                        5.401820161186729],
                       [2.568933145659739,
                        61.20567623989285,
                        11.601434820016387],
                       [2.627657376447609,
                        15.486783811686594,
                        9.920204111363288],
                       [2.5593656881795557,
                        21.274133424325584,
                        10.985472974222006],
                       [2.310463349996372,
                        15.032828381413278,
                        9.272353437497456],
                       [2.71166865565138,
                        10.832917939282922,
                        5.641222602978802]],
            'rng': '2c534251f256c55a'},
 'no-gru': {'losses': [[2.8780583067688186,
                        6.552394531302004,
                        1.0710676775700807],
                       [2.6571077523006457,
                        20.365651803268182,
                        2.765339151534838],
                       [2.506381175847689,
                        40.55270898313744,
                        1.916888370276442],
                       [2.4557529415489867,
                        28.674420784290444,
                        2.3062872114626103],
                       [2.5668266994252664,
                        15.412479890513444,
                        2.489785330675599],
                       [2.27185288403262,
                        24.75183420919637,
                        2.592102556877629]],
            'rng': 'f441089aba7122d7'},
 'no-loss-inf': {'losses': [[2.9397858595250987,
                             75.39941714772017,
                             5.915096890332368],
                            [3.744194353965147,
                             103.5436714788932,
                             5.8557777495829075],
                            [3.117896745567502,
                             18.579530985874584,
                             4.607482868945175],
                            [3.055550783445848,
                             70.36506513788986,
                             6.137712064689824],
                            [3.097840003823526,
                             28.65590053631988,
                             6.707242161621391],
                            [2.6399409538452625,
                             18.162599577851168,
                             4.984408567200717]],
                 'rng': 'f1b1d1c22be20fe0'},
 'no-minmax': {'losses': [[2.726058537563305,
                           141.66608591480116,
                           6.171837910902786],
                          [2.8628266298949114,
                           21.762116749291234,
                           6.6343654269810965],
                          [2.4399196075696343,
                           111.41698840727368,
                           5.227675899961046],
                          [2.5951523433016823,
                           13.888646467686993,
                           5.808490870706143],
                          [2.6346811980482783,
                           69.89546575925633,
                           2.7333446498279206],
                          [2.6099103710672646,
                           108.94274736146441,
                           5.100104634377043]],
               'rng': 'f1b1d1c22be20fe0'},
 'no-rttvar': {'losses': [[3.0317054684456304,
                           91.17215147330593,
                           3.5246092095240584],
                          [3.8746888884638477,
                           11.901547783612113,
                           5.434380326377552],
                          [3.170472538469232,
                           48.4857019906697,
                           4.854100204460454],
                          [3.385013413831455,
                           13.12397545629047,
                           5.760282098327835],
                          [2.997608695037113,
                           17.207009998439435,
                           2.8369345800800794],
                          [2.8485899023094747,
                           50.23228891678708,
                           5.599445867666222]],
               'rng': 'f1b1d1c22be20fe0'}}

GOLDEN_ONLINE_RL = {'losses': [[2.9397861437089485, -0.18503461009133698],
            [3.5210818612681614, 0.021885116164382587],
            [3.522595232007002, 0.020153357084490953],
            [2.4861670581150683, 0.019607255436383378],
            [3.176709031695618, 0.29305496202683684],
            [3.506059888400485, 0.19352393050347738]],
 'rng': 'e72680f190bf4a2b'}


GOLDEN_BC = {'bc': {'losses': [5.499328536031401,
                   5.724468305445488,
                   6.121566035176846,
                   2.9179146087794625,
                   3.202747830792661,
                   3.3986450857940316],
        'rng': 'fa3a18976f66c285'},
 'bc-top': {'losses': [7.626781643881718,
                       6.236675706069972,
                       6.88372437706369,
                       4.797834685753995,
                       2.8194676395958513,
                       4.472613674632552],
            'rng': 'fa3a18976f66c285'},
 'bc-top3': {'losses': [7.201427496022764,
                        4.19195595323303,
                        6.029164241623066,
                        3.604079656342854,
                        3.57887565372873,
                        4.1025460334819295],
             'rng': 'fa3a18976f66c285'},
 'bcv2': {'losses': [6.670313120021248,
                     3.52314979428961,
                     7.019236340729357,
                     4.44492551692491,
                     2.335864547951864,
                     4.040184982343321],
          'rng': 'fa3a18976f66c285'},
 'trainer': {'losses': [2.59045347596486,
                        3.382377513094123,
                        3.9153618318179495,
                        5.909714728932167,
                        4.053442416026595,
                        5.339117939103428],
             'rng': 'c3d652b0e87efdd8'}}

GOLDEN_INDIGO = {False: {'losses': [3.1146210443679436,
                    1.2441759797783587,
                    0.852551794477376,
                    0.8590772126609654,
                    0.8286148129246854,
                    0.697301907074497],
         'rng': 'fa3a18976f66c285'},
 True: {'losses': [2.3713054780742775,
                   1.4575127547264015,
                   1.0335251455509729,
                   1.2940620847096187,
                   1.195777916557299,
                   1.0349072572463744],
        'rng': 'fa3a18976f66c285'}}

GOLDEN_AURORA = {False: {'losses': [-0.689255772983821,
                    -0.595178383357802,
                    -0.7053777177342982],
         'rng': '04089d5f3d37d690'},
 True: {'losses': [-0.25636378348860905,
                   -0.48305182666126506,
                   -0.38183275185762816],
        'rng': '3e0a30d6150dee46'}}


def _assert_losses_close(got, want) -> None:
    np.testing.assert_allclose(
        np.asarray(got), np.asarray(want), rtol=LOSS_RTOL, atol=0.0
    )


def _assert_contract(got, want) -> None:
    assert got["rng"] == want["rng"]
    _assert_losses_close(got["losses"], want["losses"])


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_engine_golden(case):
    assert engine_golden(case) == GOLDEN_ENGINE[case]


@pytest.mark.parametrize("name", sorted(ablation.ABLATIONS))
def test_ablation_golden(name):
    _assert_contract(ablation_golden(name), GOLDEN_ABLATIONS[name])


def test_online_rl_golden():
    _assert_contract(online_rl_golden(), GOLDEN_ONLINE_RL)


@pytest.mark.parametrize("variant", ["trainer", *sorted(bc.BC_VARIANTS)])
def test_bc_golden(variant):
    _assert_contract(bc_golden(variant), GOLDEN_BC[variant])


@pytest.mark.parametrize("multi_flow", [False, True])
def test_indigo_golden(multi_flow):
    _assert_contract(indigo_golden(multi_flow), GOLDEN_INDIGO[multi_flow])


@pytest.mark.parametrize("curriculum", [False, True])
def test_aurora_golden(curriculum):
    _assert_contract(aurora_golden(curriculum), GOLDEN_AURORA[curriculum])


if __name__ == "__main__":  # pragma: no cover - re-recording helper
    import pprint

    for name, value in (
        ("GOLDEN_ENGINE", {c: engine_golden(c) for c in sorted(ENGINE_CASES)}),
        ("GOLDEN_ABLATIONS",
         {n: ablation_golden(n) for n in sorted(ablation.ABLATIONS)}),
        ("GOLDEN_ONLINE_RL", online_rl_golden()),
        ("GOLDEN_BC",
         {v: bc_golden(v) for v in ["trainer", *sorted(bc.BC_VARIANTS)]}),
        ("GOLDEN_INDIGO", {m: indigo_golden(m) for m in (False, True)}),
        ("GOLDEN_AURORA", {c: aurora_golden(c) for c in (False, True)}),
    ):
        print(f"{name} = {pprint.pformat(value, width=79, sort_dicts=True)}")
        print()
