"""Operation counts: accepting one block on the tip validates one block.

Wall-clock is not assertable; the number of ``validate_block`` calls is.
Both the block store and the node extend their validated chain by the new
block instead of replaying the whole chain.
"""

import pytest

from bloff import ledger
from bloff.consensus import Mempool, NodeState, mine_block
from bloff.crypto import sha256_digest
from bloff.store import BlockStore, write_chain
from conftest import GENESIS_TS, build_chain


@pytest.fixture
def counted(monkeypatch):
    """Count calls into ``bloff.ledger.validate_block``."""
    calls = []
    original = ledger.validate_block

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(ledger, "validate_block", counting)
    return calls


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
