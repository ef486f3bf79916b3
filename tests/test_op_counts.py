"""Operation counts: accepting one block validates one block.

Wall-clock is not assertable; the number of ``validate_block`` and
``verify_signature`` calls is. The block store and the node extend a
validated chain by each new block instead of replaying the whole chain, a
peer's chain costs only the blocks the node lacks, each once, and a
gossiped tx is verified once.
"""

import pytest

from bloff import consensus, ledger
from bloff.consensus import Mempool, NodeState, mine_block
from bloff.crypto import sha256_digest
from bloff.ledger import NodeRole, canonical_tx_bytes
from bloff.node import MSG_TX, NodeLogic
from bloff.store import BlockStore, write_chain
from conftest import GENESIS_TS, build_chain


def count_calls(monkeypatch, name, module=ledger):
    """Record the first argument of each call into ``module.<name>``."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def counted(monkeypatch):
    """Count calls into ``bloff.ledger.validate_block``."""
    return count_calls(monkeypatch, "validate_block")


def grow(chain, miner, device, labels):
    """``chain`` plus one single-anchor block per label."""
    for label in labels:
        pool = Mempool()
        ts = chain.tip.header.timestamp + 1
        pool.add(ledger.build_anchor_tx(sha256_digest(label.encode()), "dev", ts, device))
        block = mine_block(pool, chain.tip.header, 0, miner, ts, chain.registered_nodes)
        chain = chain.extend(block)
    return chain


def chain_and_next_block(miner, device):
    """A 41-block chain (genesis, registration, 39 one-anchor blocks) and a
    valid block 42 on its tip."""
    lines = [f"line {i}".encode() for i in range(39)]
    chain, _ = build_chain(miner, device, lines, txs_per_block=1)
    assert chain.height == 41
    pool = Mempool()
    pool.add(ledger.build_anchor_tx(sha256_digest(b"block 42"), "dev", GENESIS_TS + 100, device))
    block = mine_block(pool, chain.tip.header, 0, miner, GENESIS_TS + 100, chain.registered_nodes)
    return chain, block


def test_store_append_validates_one_block(tmp_path, miner, device, counted):
    chain, block = chain_and_next_block(miner, device)
    path = tmp_path / "chain.jsonl"
    write_chain(str(path), chain.blocks)
    store = BlockStore.open(str(path))
    counted.clear()
    store.append_block(block)
    assert counted == [block]
    assert store.chain.height == 42


def test_node_apply_on_best_tip_validates_one_block(miner, device, counted):
    chain, block = chain_and_next_block(miner, device)
    state = NodeState(best=chain)
    counted.clear()
    assert state.apply_block(block) == "accepted-best"
    assert counted == [block]
    assert state.best.height == 42


def test_adopt_own_chain_validates_nothing(miner, device, counted):
    chain, _ = chain_and_next_block(miner, device)
    state = NodeState(best=chain)
    counted.clear()
    assert state.adopt_chain(chain.blocks) is False
    assert counted == []


def test_adopt_longer_chain_validates_only_new_blocks(miner, device, counted):
    chain, _ = chain_and_next_block(miner, device)
    longer = grow(chain, miner, device, [f"new {i}" for i in range(5)])
    state = NodeState(best=chain)
    counted.clear()
    assert state.adopt_chain(longer.blocks) is True
    assert counted == longer.blocks[41:]
    assert state.best_tip == longer.tip.hash


def test_fresh_node_catches_up_in_one_pass(miner, device, counted, monkeypatch):
    """A node holding only genesis adopts the 41-block chain: each new block
    is validated once, and each tx id is taken once by the one switch of best
    chain, not once per block for the whole chain so far."""
    chain, _ = chain_and_next_block(miner, device)
    state = NodeState(best=ledger.validate_chain(chain.blocks[:1]))
    txids = count_calls(monkeypatch, "tx_id", module=consensus)
    counted.clear()
    assert state.adopt_chain(chain.blocks) is True
    assert counted == chain.blocks[1:]
    assert state.best_tip == chain.tip.hash
    all_txs = [tx for block in chain.blocks for tx in block.transactions]
    assert len(txids) == len(all_txs) + len(chain.blocks[0].transactions)


def test_side_branch_replays_its_fork_point_once(miner, device, counted):
    """A 15-block branch off height 30 of the 41-block chain, applied block
    by block: the first block replays its 30-block ancestry, every later
    block extends the one before it."""
    chain, _ = chain_and_next_block(miner, device)
    fork_point = ledger.validate_chain(chain.blocks[:30])
    branch = grow(fork_point, miner, device, [f"side {i}" for i in range(15)])
    state = NodeState(best=chain)
    counted.clear()
    for block in branch.blocks[30:]:
        assert state.apply_block(block).startswith("accepted")
    assert len(counted) == 30 + 15
    assert state.best_tip == branch.tip.hash


def test_gossiped_tx_verified_once(miner, device, monkeypatch):
    chain, _ = chain_and_next_block(miner, device)
    logic = NodeLogic("n1", miner, NodeRole.CSP_MINER, chain)
    tx = ledger.build_anchor_tx(sha256_digest(b"gossip"), "dev", GENESIS_TS + 100, device)
    calls = count_calls(monkeypatch, "verify_signature")
    payload = canonical_tx_bytes(tx)
    assert logic.handle_message(MSG_TX, payload, "peer") == [(MSG_TX, payload, "*")]
    assert calls == [device.public_key]
    assert ledger.tx_id(tx) in logic.state.mempool
