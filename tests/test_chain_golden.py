"""Golden pins for whole Elastico epochs.

Each case runs a fixed-seed deployment for two epochs and compares, per
epoch, the final block hash, the refreshed randomness, the number of
submitted shards and a digest of the per-committee consensus latencies
against values recorded from the reference implementation.  The pins
cover both chain engines, a lossy network (every stage-3 round replays
on the DES), a Byzantine fraction of 0.3 (view changes on the kernel,
no-quorum committees), an SE scheduler on a contended final block, and
mempool-driven epochs.

The values are fixed: a change that moves any of them changes what an
epoch computes and is not a refactor.  Never regenerate them to make a
change pass.
"""

import hashlib

import numpy as np
import pytest

from repro.chain.elastico import ElasticoSimulation
from repro.chain.mempool import Mempool, synthetic_transactions
from repro.chain.params import ChainParams, NetworkParams
from repro.core import MVComConfig, SEConfig, StochasticExploration

EPOCHS = 2


def se_scheduler(instance):
    """A small SE solve: the mask depends on every instance feature."""
    result = StochasticExploration(
        SEConfig(
            num_threads=3, max_iterations=300, convergence_window=100, seed=5, engine="serial"
        )
    ).solve(instance)
    return result.best_mask


def _deployment(case):
    """``(simulation, mempool or None)`` for one named case."""
    engine, _, variant = case.partition("-")
    params = dict(num_nodes=240, committee_size=8, seed=3, chain_engine=engine)
    kwargs = {}
    if variant == "lossy":
        params["network"] = NetworkParams(loss_probability=0.05)
    elif variant == "byzantine":
        params.update(byzantine_fraction=0.3, seed=11)
    elif variant == "se":
        params["seed"] = 1
        kwargs = dict(
            mvcom_config=MVComConfig(alpha=1.5, capacity=12_000), scheduler=se_scheduler
        )
    elif variant == "mempool":
        kwargs = dict(mvcom_config=MVComConfig(alpha=1.5, capacity=800))
    simulation = ElasticoSimulation(ChainParams(**params), **kwargs)
    if variant != "mempool":
        return simulation, None
    pool = Mempool()
    pool.add_many(synthetic_transactions(2_000, np.random.default_rng(4)))
    return simulation, pool


def _latency_digest(latencies):
    text = repr(sorted((int(k), float(v).hex()) for k, v in latencies.items()))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def epoch_pins(case, streaming=False):
    """One ``(block hash, randomness, shards submitted, latency digest)`` per epoch."""
    simulation, pool = _deployment(case)
    pins = []
    for _ in range(EPOCHS):
        if streaming:
            outcome = simulation.run_epoch_streaming()
            submitted = outcome.shards_submitted
        else:
            outcome = simulation.run_epoch(mempool=pool)
            submitted = len(outcome.shard_blocks)
        block_hash = outcome.final.block.block_hash if outcome.final is not None else None
        pins.append(
            (block_hash, outcome.randomness, submitted, _latency_digest(outcome.consensus_latencies))
        )
    if pool is not None:
        pins.append(len(pool))
    return pins


GOLDEN = {
    'des': [
        (
            'a812a0c8c16e0e012c85fb01c62c4a46b15c6cb671585203960020e5b1fb51db',
            '112176bbbe339f045fb144a0ccfe4554890c385da4a93492697d5e8239ffefbc',
            17,
            '854f746e859502b6',
        ),
        (
            '1fdb010650b81558b4f7b00f94375c8ed8323a7c02767ca00eaf4193bc7707d6',
            'a13f5d8b4ec34390cc85291cf6d80d0675a4a26e894e4430b6335e379b54e8a8',
            16,
            '0940376c3e2e8833',
        ),
    ],
    'des-lossy': [
        (
            'a812a0c8c16e0e012c85fb01c62c4a46b15c6cb671585203960020e5b1fb51db',
            'f478136036914ff9c5f3f096dc96a0acf1a443b8311677a5f5ab38f49e4e0725',
            17,
            '636c29c19bd2f1b7',
        ),
        (
            'e729eb333975c0a1fb74e2f1ec4f0a6e71ab76fcc8ce00fd84a59260036b4ebb',
            '12fe35aa88d075d700820b5409c1efe4951b2da64f23b81bff4f7b365e23b2f4',
            13,
            'b2f9cb11207bdbaa',
        ),
    ],
    'des-byzantine': [
        (
            '033517fe64b535e0a9ea5ee611a603c7621e6abc2bfb4cf8b3e6e31e9f30c347',
            'e9d4cf3947d58d5ab48d2954a01f9ff360e97b5013d784e5f3f4926036e30d89',
            11,
            '2b9a8bd022f70b27',
        ),
        (
            '48363738a2a21d5091242bc161d3da05e6e48ec51d345434c1d66fefe1a77ba1',
            '69fb3f7faa0f8564b2411fb35311a99a54883cae21e76c8f9b2deffd19dfbad8',
            10,
            '58f6d90159dd23de',
        ),
    ],
    'des-se': [
        (
            'b394495c2439b6e12bd04bdbf3c1e19c28673eeb3f0e2261e15e124e3e8213d3',
            'f1c67a94526c1c8e34213a12412fa2e6f33e557a52df097228441a68f2fd6cdf',
            20,
            'e9061a13b21cd39e',
        ),
        (
            'f14f87026f6841d2e0321e1224bbe82738a83f3a6adc4945322de0d45030bdcb',
            '5d2cb69e0ad0e0a09cd3bfe3592099f89fbe49ff76dff7285e5446338e0adcbb',
            17,
            'dd573abdb27e548b',
        ),
    ],
    'des-mempool': [
        (
            '42450f67c35e4f875a6b80f3ac9c9fba943b5e48c5a6b39d995343e96140f628',
            '8001de515edc00efc507211f786de6c1bf62b77c4c7045f55c730527d7c61f08',
            17,
            'd6380e9ec16db061',
        ),
        (
            'c707b227167fce035c62e51bc0ceb3009a9079196edf3e291911a56e0cd208f9',
            'a68bb0eb5079948d964e2a2dcd77ccf40bf7d2ba2fee6ac705b47884c61e83dd',
            14,
            '41ae8c055f5bd972',
        ),
        880,  # transactions left in the mempool
    ],
    'fastpath': [
        (
            'a812a0c8c16e0e012c85fb01c62c4a46b15c6cb671585203960020e5b1fb51db',
            '95cb0f99a9603458e6119ee1997b8f76242f3b5a7737d7ec2cb31de722ec110a',
            17,
            'd622f4f354d4d56f',
        ),
        (
            '2dd3fe2094c669ec23b9526a1566220b325a1443247c24ddc67f5641b3406763',
            'bad5b0032ad5468d826d90aa661dbbbd5382a0ebb5f07f0878cf043742036ebf',
            16,
            '574a8808b40cce43',
        ),
    ],
    'fastpath-lossy': [
        (
            'a812a0c8c16e0e012c85fb01c62c4a46b15c6cb671585203960020e5b1fb51db',
            'f478136036914ff9c5f3f096dc96a0acf1a443b8311677a5f5ab38f49e4e0725',
            17,
            '636c29c19bd2f1b7',
        ),
        (
            'e729eb333975c0a1fb74e2f1ec4f0a6e71ab76fcc8ce00fd84a59260036b4ebb',
            '12fe35aa88d075d700820b5409c1efe4951b2da64f23b81bff4f7b365e23b2f4',
            13,
            'b2f9cb11207bdbaa',
        ),
    ],
    'fastpath-byzantine': [
        (
            '033517fe64b535e0a9ea5ee611a603c7621e6abc2bfb4cf8b3e6e31e9f30c347',
            'c5ab8efc2e7e8d795ef1ced8edf5098a4679eefbb8ae9c4c765c36b502c0cf31',
            11,
            'c83f5fec685b0e94',
        ),
        (
            '2b8b26b135f5cd233f597f7a025fe15017d12b2caa0363b7f8c32315121c9b52',
            'f83ac19982f12fbfc87afcbd03917f4396d0fca84b3b3a906cf38762b5cb1e3f',
            10,
            '7268d4cd966bdd85',
        ),
    ],
    'fastpath-se': [
        (
            'b0411a064e636dcd428e0af0e094db253598ff1487e786133178e9cdbd4383b0',
            '6cca56eaaf2b5a16af966bc76f45171220b44f01ec855a812e6498fb9ed86770',
            20,
            '24b256c3de52e0f8',
        ),
        (
            '0c330b42890df78d9161d952dd21263e452e070cc14020d4e1f76ef51f965643',
            '676449738164a849904614c175896d481fe4142ebfc1761e0af64b536f9c8768',
            14,
            '919034be225232c7',
        ),
    ],
    'fastpath-mempool': [
        (
            '42450f67c35e4f875a6b80f3ac9c9fba943b5e48c5a6b39d995343e96140f628',
            'b70bb29b5e28631cc850b13b105035a07e3065143fa3c7f0e822a72b7edefa11',
            17,
            '4647610e9c5259e5',
        ),
        (
            'd04549d46191fda7c18484efa189522a8f0e74f0e0a713f5877177f137ad37db',
            '7046fde1c20352bf8176a61f4a0a79226547fd253922c25b4de28b2e8e2eae07',
            13,
            '9d94e9db87f359e8',
        ),
        875,  # transactions left in the mempool
    ],
}

NO_MEMPOOL = [case for case in GOLDEN if not case.endswith("-mempool")]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_run_epoch_matches_golden(case):
    assert epoch_pins(case) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(NO_MEMPOOL))
def test_run_epoch_streaming_matches_golden(case):
    assert epoch_pins(case, streaming=True) == GOLDEN[case]
