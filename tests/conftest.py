import os
import random
from pathlib import Path

import pytest

from bloff.consensus import Mempool, mine_block
from bloff.crypto import generate_keypair, sha256_digest
from bloff.ingest import LogRecord, build_anchor_for_record
from bloff.ledger import (
    NodeRole,
    build_anchor_tx,
    build_registration_tx,
    decode_tx,
    make_genesis,
    validate_chain,
)
from bloff.simnet import SimNetwork, SimNode

GENESIS_TS = 1_700_000_000

SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env():
    """Environment for a child ``python -m bloff``: this checkout's package
    first on its path, which pytest's ``pythonpath`` setting does not reach."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture(autouse=True)
def reader_cache(tmp_path_factory, monkeypatch):
    """Each test's own ``XDG_CACHE_HOME``, which ``child_env`` passes on, so
    that no test reads or makes a reader key in the user's cache."""
    cache = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return cache


def with_signature(tx, signature):
    """``tx`` carrying ``signature`` in place of its own."""
    return decode_tx(tx.raw[:-64] + bytes(signature))


def lone_node(logic):
    """A network of ``logic``'s node alone, to hand it submissions."""
    net = SimNetwork()
    net.add_node(SimNode(logic.node_id, logic.role, logic.keypair, logic))
    return net


def assert_pool_admissible(pool, chain):
    """A fresh ``Mempool`` admits every tx ``pool`` holds, in its order, on
    ``chain``: so a block of ``pool.oldest()``, cut at any cap, is valid there."""
    fresh = Mempool(capacity=len(pool))
    assert [fresh.add(tx, chain) for tx in pool.oldest()] == ["accepted"] * len(pool)


def keypair_for(label: str):
    """Deterministic keypair derived from a short label."""
    return generate_keypair(bytes(sha256_digest(f"bloff-test:{label}".encode())))


@pytest.fixture
def miner():
    return keypair_for("miner-0")


@pytest.fixture
def device():
    return keypair_for("device-0")


@pytest.fixture
def stakeholder():
    return keypair_for("stakeholder-0")


@pytest.fixture
def rng():
    return random.Random(0xB10FF)


def partition_scenario(seed=7, difficulty=2):
    """Five nodes (2 csp-miners, 2 devices, 1 stakeholder): divergent mining
    across a partition (3 blocks on one side, 4 on the other), then heal and
    one sweep block that re-anchors everything the losing side mined."""
    actions = [
        {"tick": 0, "type": "register", "node": "m1", "target": "d1", "role": "device"},
        {"tick": 0, "type": "register", "node": "m1", "target": "d2", "role": "device"},
        {"tick": 3, "type": "mine", "node": "m1"},
        {"tick": 6, "type": "submit", "node": "d1", "log": "alpha-1"},
        {"tick": 6, "type": "submit", "node": "d2", "log": "beta-1"},
        {"tick": 9, "type": "mine", "node": "m2"},
        {"tick": 12, "type": "partition", "groups": [["m1", "d1"], ["m2", "d2", "s1"]]},
    ]
    for i in range(3):  # side A mines 3 blocks
        actions.append({"tick": 13 + 2 * i, "type": "submit", "node": "d1", "log": f"alpha-{2 + i}"})
        actions.append({"tick": 14 + 2 * i, "type": "mine", "node": "m1"})
    for i in range(4):  # side B mines 4 blocks and wins on length
        actions.append({"tick": 13 + 2 * i, "type": "submit", "node": "d2", "log": f"beta-{2 + i}"})
        actions.append({"tick": 14 + 2 * i, "type": "mine", "node": "m2"})
    actions.append({"tick": 24, "type": "heal"})
    actions.append({"tick": 32, "type": "mine", "node": "m1"})  # sweep re-injected anchors
    return {
        "seed": seed,
        "difficulty": difficulty,
        "genesis_timestamp": GENESIS_TS,
        "drop_rate": 0.0,
        "max_ticks": 100,
        "nodes": [
            {"id": "m1", "role": "csp-miner"},
            {"id": "m2", "role": "csp-miner"},
            {"id": "d1", "role": "device"},
            {"id": "d2", "role": "device"},
            {"id": "s1", "role": "stakeholder"},
        ],
        "edges": [
            {"a": "m1", "b": "d1", "latency": 1},
            {"a": "m1", "b": "m2", "latency": 1},
            {"a": "m2", "b": "d2", "latency": 1},
            {"a": "m2", "b": "s1", "latency": 1},
            {"a": "d1", "b": "s1", "latency": 1},
        ],
        "actions": actions,
    }


def build_chain(miner, device, log_lines, difficulty=0, txs_per_block=100):
    """Genesis, a registration block for the device, then anchor blocks.

    Returns (chain, records). Anchors are submitted by the device key with
    capture timestamps spaced one second apart; blocks hold up to
    ``txs_per_block`` transactions each. Blocks are constructed incrementally
    and the whole chain is validated once at the end, so large fixtures stay
    cheap.
    """
    genesis = make_genesis([miner], GENESIS_TS)
    registered = validate_chain([genesis])

    pool = Mempool(capacity=max(10_000, len(log_lines) + 10))
    pool.add(build_registration_tx(device.public_key, NodeRole.DEVICE, miner), registered)
    registered.connect(
        mine_block(pool, genesis.header, difficulty, miner, GENESIS_TS + 1, registered.registered_nodes)
    )
    blocks = list(registered.blocks)

    records = []
    pool = Mempool(capacity=max(10_000, len(log_lines) + 10))
    for offset, line in enumerate(log_lines):
        record = LogRecord(raw=line, source_id="dev-0", capture_timestamp=GENESIS_TS + 2 + offset)
        records.append(record)
        status = pool.add(build_anchor_for_record(record, device), registered)
        assert status == "accepted", status
    while len(pool):
        block = mine_block(
            pool,
            blocks[-1].header,
            difficulty,
            miner,
            GENESIS_TS + 2 + len(records),
            registered.registered_nodes,
            block_tx_cap=txs_per_block,
        )
        blocks.append(block)
        pool.evict({tx.id for tx in block.transactions})
    return validate_chain(blocks), records


def grow(chain, miner, device, labels):
    """A copy of ``chain`` plus one single-anchor block per label."""
    chain = chain.copy()
    for label in labels:
        pool = Mempool()
        ts = chain.tip.header.timestamp + 1
        pool.add(build_anchor_tx(sha256_digest(label.encode()), "dev", ts, device), chain)
        block = mine_block(pool, chain.tip.header, 0, miner, ts, chain.registered_nodes)
        chain.connect(block)
    return chain
