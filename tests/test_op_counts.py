"""Operation counts: accepting one block validates one block, and each
node checks each signature once.

Wall-clock is not assertable; the number of ``validate_block`` and
``verify_signature`` calls is. The block store and the node move one
validated chain onto each new block in place, instead of copying or
replaying the whole chain, and a peer's chain costs only the blocks the node
lacks, each once. A node, or
one ``bloff mine`` run, records the txs whose checks passed, so gossip,
submission, mining, block validation and replays check each tx once.
"""

import dataclasses
import gc
import hashlib
import json
import os
import pathlib
import tracemalloc
import weakref
from types import SimpleNamespace

import pytest

from bloff import ledger
from bloff import store as store_mod
from bloff.cli import handle_command, load_chain_target, reader_checkpoint
from bloff.consensus import Mempool, NodeState, mine_block
from bloff.crypto import node_id, save_keypair, sha256_digest
from bloff.ledger import (
    Block,
    NodeRole,
    block_to_json_line,
    decode_blocks,
    encode_blocks,
    encode_compact_block,
)
from bloff.node import (
    MSG_BLOCK,
    MSG_CHAIN_REQUEST,
    MSG_CHAIN_RESPONSE,
    MSG_TX,
    LiveNode,
    NodeConfig,
    NodeLogic,
    _Conn,
    encode_frame,
)
from bloff.simnet import run_scenario
from bloff.store import (
    BlockStore,
    ChainView,
    Checkpoint,
    append_mempool_file,
    load_chain,
    write_chain,
)
from bloff.verify import verify_log
from conftest import (
    GENESIS_TS,
    build_chain,
    grow,
    keypair_for,
    lone_node,
    partition_scenario,
    with_signature,
)


ROOT_WRITES_ANYWHERE = pytest.mark.skipif(os.geteuid() == 0, reason="root writes through any file mode")


def count_calls(monkeypatch, name, module=ledger):
    """Record the first argument of each call into ``module.<name>``."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def count_checks(monkeypatch):
    """Record the key of each signature check made in ``bloff.ledger``: an
    Ed25519 verify in ``verifies``, or, for a tx of a load's own key, a
    ``sign`` made within ``verify_tx`` in ``resigns``."""
    checks = SimpleNamespace(verifies=count_calls(monkeypatch, "verify_signature"), resigns=[])
    inside, sign, verify_tx = [], ledger.sign, ledger.verify_tx

    def counting_sign(keypair, message):
        if inside:
            checks.resigns.append(keypair.public_key)
        return sign(keypair, message)

    def counting_verify_tx(*args, **kwargs):
        inside.append(None)
        try:
            return verify_tx(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(ledger, "sign", counting_sign)
    monkeypatch.setattr(ledger, "verify_tx", counting_verify_tx)
    checks.counts = lambda: (len(checks.verifies), len(checks.resigns))
    checks.clear = lambda: (checks.verifies.clear(), checks.resigns.clear())
    return checks


@pytest.fixture
def counted(monkeypatch):
    """Count calls into ``bloff.ledger.validate_block``."""
    return count_calls(monkeypatch, "validate_block")


def chain_and_next_block(miner, device):
    """A 41-block chain (genesis, registration, 39 one-anchor blocks) and a
    valid block 42 on its tip."""
    lines = [f"line {i}".encode() for i in range(39)]
    chain, _ = build_chain(miner, device, lines, txs_per_block=1)
    assert chain.height == 41
    pool = Mempool()
    pool.add(ledger.build_anchor_tx(sha256_digest(b"block 42"), "dev", GENESIS_TS + 100, device), chain)
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


def count_chains(monkeypatch):
    """Record every ``Chain`` constructed, by the number of its blocks."""
    calls = []
    original = ledger.Chain.__init__

    def counting(self, blocks, *args, **kwargs):
        calls.append(len(blocks))
        original(self, blocks, *args, **kwargs)

    monkeypatch.setattr(ledger.Chain, "__init__", counting)
    return calls


def test_block_on_best_tip_copies_no_chain(tmp_path, miner, device, monkeypatch):
    """Block 42 on the best tip, applied by a node and appended by the block
    store, moves their chains in place: no ``Chain`` is constructed."""
    chain, block = chain_and_next_block(miner, device)
    state = NodeState(best=chain)
    path = tmp_path / "chain.jsonl"
    write_chain(str(path), chain.blocks)
    store = BlockStore.open(str(path))
    constructed = count_chains(monkeypatch)
    assert state.apply_block(block) == "accepted-best"
    store.append_block(block)
    assert constructed == []
    assert state.best.height == store.chain.height == 42


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
    assert state.adopt_chain(chain.blocks) == []
    assert counted == []


def test_adopt_longer_chain_validates_only_new_blocks(miner, device, counted):
    chain, _ = chain_and_next_block(miner, device)
    longer = grow(chain, miner, device, [f"new {i}" for i in range(5)])
    state = NodeState(best=chain)
    counted.clear()
    assert state.adopt_chain(longer.blocks) == longer.blocks[41:]
    assert counted == longer.blocks[41:]
    assert state.best.tip.hash == longer.tip.hash


def test_run_whose_valid_prefix_cannot_win_checks_no_signature(miner, device, monkeypatch):
    """A 41-block peer run from genesis whose 40th block has a wrong Merkle
    root, sent to a node on a 40-block chain: the run's 39-block valid
    prefix cannot outrank the node's chain, so the run is refused with no
    signature checked, and ``best`` keeps all five fields. Without the
    fault, the run validates each new block once."""
    own, _ = build_chain(miner, device, [b"own %d" % i for i in range(380)], txs_per_block=10)
    peer, _ = build_chain(miner, device, [b"peer %d" % i for i in range(390)], txs_per_block=10)
    assert (own.height, peer.height) == (40, 41)
    fortieth, last = peer.blocks[39:]
    bad = Block(dataclasses.replace(fortieth.header, merkle_root=bytes(32)), fortieth.transactions)
    after = Block(dataclasses.replace(last.header, prev_hash=bad.hash), last.transactions)
    state = NodeState(best=own)
    checks = count_checks(monkeypatch)
    assert state._connect_run(peer.blocks[:39] + [bad, after]) == ("rejected:merkle-mismatch", [])
    assert checks.counts() == (0, 0)
    assert state.best == own  # blocks, registry, anchor index, tx ids and heights
    validated = count_calls(monkeypatch, "validate_block")
    assert state.adopt_chain(peer.blocks) == peer.blocks[2:]
    assert validated == peer.blocks[2:]


def test_fresh_node_catches_up_in_one_pass(miner, device, counted, monkeypatch):
    """A node holding only genesis adopts the 41-block chain as a peer sends
    it: decoding the ``chain-response`` wraps each tx's bytes as they came,
    and adopting the chain encodes no tx either, for the Merkle roots, the
    lookups and the switch of best chain alike; each new block is validated
    once."""
    chain, _ = chain_and_next_block(miner, device)
    state = NodeState(best=ledger.validate_chain(chain.blocks[:1]))
    raw = encode_blocks(chain.blocks)
    encoded = count_calls(monkeypatch, "_encode_preamble")
    peer_blocks = decode_blocks(raw)
    counted.clear()
    assert state.adopt_chain(peer_blocks) == peer_blocks[1:]
    assert counted == chain.blocks[1:]
    assert state.best.tip.hash == chain.tip.hash
    assert encoded == []


@pytest.fixture(scope="module")
def thousand_tx_file(tmp_path_factory):
    """A chain file of 1,000 txs: genesis, the registration block and 998
    anchors in blocks of 100."""
    chain, _ = build_chain(
        keypair_for("miner-0"), keypair_for("device-0"), [b"entry %d" % i for i in range(998)]
    )
    path = tmp_path_factory.mktemp("chain") / "chain.jsonl"
    write_chain(str(path), chain.blocks)
    return chain, str(path)


def test_chain_load_encodes_no_tx(thousand_tx_file, monkeypatch):
    """Loading the 1,000-tx file wraps each tx's bytes as the file holds
    them: no tx is encoded, for ids, the canonical-line check or replay."""
    chain, path = thousand_tx_file
    encoded = count_calls(monkeypatch, "_encode_preamble")
    assert load_chain(path).blocks == chain.blocks
    assert encoded == []


def test_chain_load_walks_the_registry_once_per_tx(thousand_tx_file, monkeypatch):
    """Loading the 1,000-tx file applies the registry rules to each tx once:
    ``Chain.advance`` admits the registrations ``validate_block`` checked."""
    chain, path = thousand_tx_file
    calls = count_calls(monkeypatch, "tx_context_reason")
    assert load_chain(path).blocks == chain.blocks
    assert calls == [tx for block in chain.blocks for tx in block.transactions]


def test_chain_fold_builds_no_digest_per_anchor(monkeypatch):
    """A ``validate_chain`` fold over 1,000 anchors keys ``anchor_index`` by
    each anchor's ``log_hash`` bytes, a slice of its ``raw``: it builds no
    ``Digest``."""
    chain, _ = build_chain(
        keypair_for("miner-0"), keypair_for("device-0"), [b"entry %d" % i for i in range(1000)]
    )
    built = count_calls(monkeypatch, "Digest")
    folded = ledger.validate_chain(chain.blocks)
    assert sum(map(len, folded.anchor_index.values())) == 1000
    assert built == []


def test_chain_load_holds_one_copy_of_the_file(thousand_tx_file):
    """The most a load of the 1,000-tx file holds beyond the chain it
    returns stays below the file's size: the file is parsed from one
    decoded copy, dropped before replay."""
    chain, path = thousand_tx_file
    tracemalloc.start()
    try:
        loaded = load_chain(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.blocks == chain.blocks
    assert peak - held < os.path.getsize(path)


def test_fresh_node_hashes_each_header_once(miner, device, monkeypatch):
    """Adopting the 41-block chain from ``chain-response`` bytes hashes each
    block header once, for the lookups and the linkage checks alike."""
    chain, _ = chain_and_next_block(miner, device)
    state = NodeState(best=ledger.validate_chain(chain.blocks[:1]))
    peer_blocks = decode_blocks(encode_blocks(chain.blocks))
    calls = count_calls(monkeypatch, "block_hash")
    assert state.adopt_chain(peer_blocks) == peer_blocks[1:]
    assert calls == [block.header for block in peer_blocks]


def test_node_k_blocks_behind_receives_and_validates_k(miner, device, counted):
    """A node 5 blocks behind sends its locator: the reply holds exactly the
    5 blocks it lacks, each validated once, and its push after the adopt
    holds the same 5."""
    chain, _ = chain_and_next_block(miner, device)
    longer = grow(chain, miner, device, [f"new {i}" for i in range(5)])
    ahead = NodeLogic("a", miner, NodeRole.CSP_MINER, longer)
    behind = NodeLogic("b", miner, NodeRole.CSP_MINER, chain)
    kind, locator, _ = behind.chain_request("a")
    [(reply_kind, reply, dest)] = ahead.handle_message(kind, locator, "b")
    assert (reply_kind, dest) == (MSG_CHAIN_RESPONSE, "b")
    assert decode_blocks(reply) == longer.blocks[41:]
    counted.clear()
    pushed = behind.handle_message(MSG_CHAIN_RESPONSE, reply, "a")
    assert counted == longer.blocks[41:]
    assert pushed == [(MSG_CHAIN_RESPONSE, reply, "*")]
    assert behind.chain.tip.hash == longer.tip.hash


def test_side_branch_validates_only_its_own_blocks(miner, device, counted):
    """A 15-block branch off height 30 of the 41-block chain, delivered as
    one run: the best chain is moved to the fork point without checks, so
    only each new block is validated, once."""
    chain, _ = chain_and_next_block(miner, device)
    fork_point = ledger.validate_chain(chain.blocks[:30])
    branch = grow(fork_point, miner, device, [f"side {i}" for i in range(15)])
    state = NodeState(best=chain)
    counted.clear()
    assert state.adopt_chain(branch.blocks[30:]) == branch.blocks[30:]
    assert counted == branch.blocks[30:]
    assert state.best.tip.hash == branch.tip.hash


def test_side_branch_replay_of_known_blocks_checks_no_signature(miner, device, monkeypatch):
    """Moving onto a 15-block side branch, delivered as one run, checks no
    signature the node has checked before; only the branch's own 15 anchors
    are new."""
    chain, _ = chain_and_next_block(miner, device)
    fork_point = ledger.validate_chain(chain.blocks[:30])
    branch = grow(fork_point, miner, device, [f"side {i}" for i in range(15)])
    state = NodeState(best=chain)
    calls = count_calls(monkeypatch, "verify_signature")
    assert state.adopt_chain(branch.blocks) == branch.blocks[30:]
    assert calls == [device.public_key] * 15
    assert state.best.tip.hash == branch.tip.hash


def test_side_block_far_from_tip_costs_a_rank_comparison(miner, device, counted, monkeypatch):
    """A valid side block on the registration block (height 2) of the
    41-block chain cannot outrank it: it is "stale" without a
    ``validate_block`` call, a signature check or a move of ``best``."""
    chain, _ = chain_and_next_block(miner, device)
    side = grow(ledger.validate_chain(chain.blocks[:2]), miner, device, ["far side"])
    state = NodeState(best=chain)
    signatures = count_calls(monkeypatch, "verify_signature")
    moves = count_calls(monkeypatch, "disconnect", module=ledger.Chain)
    counted.clear()
    assert state.apply_block(side.tip) == "stale"
    assert counted == signatures == moves == []
    assert state.best == chain


def test_gossiped_tx_verified_once(miner, device, monkeypatch):
    """A tx gossiped to a node, then the block carrying it: one check."""
    chain, _ = chain_and_next_block(miner, device)
    logic = NodeLogic("n1", miner, NodeRole.CSP_MINER, chain)
    tx = ledger.build_anchor_tx(sha256_digest(b"gossip"), "dev", GENESIS_TS + 100, device)
    pool = Mempool()
    pool.add(tx, chain)
    block = mine_block(pool, chain.tip.header, 0, miner, GENESIS_TS + 100, chain.registered_nodes)
    calls = count_calls(monkeypatch, "verify_signature")
    payload = tx.raw
    assert logic.handle_message(MSG_TX, payload, "peer") == [(MSG_TX, payload, "*")]
    assert calls == [device.public_key]
    assert tx.id in logic.state.mempool
    logic.handle_message(MSG_BLOCK, encode_compact_block(block), "peer")
    assert logic.chain.tip.hash == block.hash
    assert calls == [device.public_key]


def test_compact_block_of_pooled_txs_checks_no_signature(miner, device, counted, monkeypatch):
    """Block 42 gossiped as its header and tx ids to a node that pooled its
    tx: the node rebuilds it from the pool and validates it once, checks no
    signature again, sends no request and relays the same payload."""
    chain, block = chain_and_next_block(miner, device)
    logic = NodeLogic("n1", miner, NodeRole.CSP_MINER, chain)
    for tx in block.transactions:
        assert logic.state.mempool.add(tx, chain) == "accepted"
    calls = count_calls(monkeypatch, "verify_signature")
    counted.clear()
    payload = encode_compact_block(block)
    assert logic.handle_message(MSG_BLOCK, payload, "peer") == [(MSG_BLOCK, payload, "*")]
    assert calls == []
    assert counted == [block]
    assert logic.chain.tip.hash == block.hash


def live_node(tmp_path, blocks, keypair=None):
    """A ``LiveNode`` of ``keypair`` that is not running, on a chain file of
    ``blocks``, or on the file as it is for None."""
    path = tmp_path / "chain.jsonl"
    if blocks is not None:
        write_chain(str(path), blocks)
    config = NodeConfig(NodeRole.STAKEHOLDER, "unused.key", str(path))
    keypair = keypair or keypair_for("stakeholder-0")
    return LiveNode(config, keypair, BlockStore.open(str(path), keypair))


def deliver(node, kind, payload):
    """Have ``node`` read one wire frame from a peer, as its loop does."""
    frame = encode_frame(kind, payload)
    sock = SimpleNamespace(recv=lambda size: frame, sendall=lambda data: None)
    node._read(_Conn(sock))


def test_live_wire_bytes_are_the_payload_and_a_six_byte_header(tmp_path, miner, device):
    """A live node answers a whole-chain ``chain-request`` with one frame of
    exactly 6 bytes more than the encoded blocks, and relays a gossiped tx
    in 6 bytes more than the tx: no payload byte is hex-doubled."""
    chain, block = chain_and_next_block(miner, device)
    node = live_node(tmp_path, chain.blocks)
    origin_sent, other_sent = [], []
    def sock(sent):
        return SimpleNamespace(send=lambda data: sent.append(bytes(data)) or len(data))

    origin = _Conn(sock(origin_sent))
    node._conns = [origin, _Conn(sock(other_sent))]
    origin.sock.recv = lambda size: encode_frame(MSG_CHAIN_REQUEST, b"")
    node._read(origin)
    blocks = encode_blocks(chain.blocks)
    assert origin_sent == [encode_frame(MSG_CHAIN_RESPONSE, blocks)]
    assert len(origin_sent[0]) == 6 + len(blocks)
    tx = block.transactions[0]
    origin.sock.recv = lambda size: encode_frame(MSG_TX, tx.raw)
    node._read(origin)
    assert other_sent == [encode_frame(MSG_TX, tx.raw)]
    assert len(other_sent[0]) == 6 + len(tx.raw)


def test_live_node_validates_a_gossiped_block_once(tmp_path, miner, device, counted):
    """Block 42 gossiped to a live node that pooled its tx is validated
    once, by the node; the store only writes it."""
    chain, block = chain_and_next_block(miner, device)
    node = live_node(tmp_path, chain.blocks)
    for tx in block.transactions:
        assert node.logic.state.mempool.add(tx, chain) == "accepted"
    counted.clear()
    deliver(node, MSG_BLOCK, encode_compact_block(block))
    assert counted == [block]
    assert load_chain(node.store.path) == node.logic.chain
    assert node.logic.chain.tip.hash == block.hash


def test_live_node_reorg_writes_the_one_chain(tmp_path, miner, device, monkeypatch):
    """A live node that reorgs onto a peer's longer run: the store writes
    the node's own chain, which the file then holds, the displaced block
    goes to the fork sidecar, and no ``Chain`` is constructed."""
    chain, _ = chain_and_next_block(miner, device)
    own = grow(chain, miner, device, ["own 42"])
    longer = grow(chain, miner, device, ["peer 42", "peer 43"])
    node = live_node(tmp_path, own.blocks)
    constructed = count_chains(monkeypatch)
    deliver(node, MSG_CHAIN_RESPONSE, encode_blocks(longer.blocks[41:]))
    assert constructed == []
    assert node.store.chain is node.logic.chain
    assert node.logic.chain.tip.hash == longer.tip.hash
    assert load_chain(node.store.path) == node.logic.chain
    with open(node.store.forks_path) as fh:
        assert fh.read().splitlines() == [block_to_json_line(own.tip)]


def test_restarted_live_node_checks_only_the_blocks_it_did_not_connect(
    tmp_path, miner, device, monkeypatch
):
    """A live node names its tip in its key's checkpoint after its open and
    after each sync, so a restart on its own file checks no signature; a
    block appended by another writer meanwhile costs its own txs only."""
    chain, block = chain_and_next_block(miner, device)
    stakeholder = keypair_for("stakeholder-0")
    calls = count_calls(monkeypatch, "verify_signature")
    node = live_node(tmp_path, chain.blocks, stakeholder)
    assert len(calls) == len(chain.tx_ids)
    assert node.store.checkpoint.named == (41, chain.tip.hash)
    deliver(node, MSG_TX, block.transactions[0].raw)
    deliver(node, MSG_BLOCK, encode_compact_block(block))
    assert Checkpoint(node.store.path, stakeholder).named == (42, block.hash)
    calls.clear()
    assert live_node(tmp_path, None, stakeholder).store.chain.tip.hash == block.hash
    assert calls == []
    after = grow(node.logic.chain, miner, device, ["appended"])
    BlockStore.open(node.store.path).append_block(after.tip)
    calls.clear()
    assert live_node(tmp_path, None, stakeholder).store.chain.height == 43
    assert calls == [device.public_key]


def test_local_submission_verified_once(miner, device, monkeypatch):
    chain, _ = chain_and_next_block(miner, device)
    logic = NodeLogic("n1", device, NodeRole.DEVICE, chain)
    tx = ledger.build_anchor_tx(sha256_digest(b"local"), "dev", GENESIS_TS + 100, device)
    calls = count_calls(monkeypatch, "verify_signature")
    assert lone_node(logic).submit("n1", tx) == "ok"
    assert calls == [device.public_key]


class TestUnregisteredAnchorIsRefusedOnEveryPath:
    """An anchor signed by a key the chain never registered is refused on
    every way into a pool, and wherever it reaches a node's pool, before its
    signature is checked."""

    @pytest.fixture
    def logic(self, miner, device):
        chain, _ = build_chain(miner, device, [])
        return NodeLogic("m", miner, NodeRole.CSP_MINER, chain)

    @staticmethod
    def anchor(keypair, label=b"evil entry"):
        return ledger.build_anchor_tx(sha256_digest(label), "x", GENESIS_TS + 50, keypair)

    def test_flood_costs_no_signature_and_leaves_room_for_honest_evidence(
        self, logic, device, monkeypatch
    ):
        """A 5-slot pool offered 5 anchors of an unregistered key, then one
        of a registered device: no flood tx is relayed, only the honest
        signature is checked, and the honest anchor is pooled, relayed and
        mined."""
        logic.state.mempool = Mempool(capacity=5)
        intruder = keypair_for("intruder")
        flood = [self.anchor(intruder, b"flood %d" % i) for i in range(5)]
        honest = self.anchor(device, b"honest")
        calls = count_calls(monkeypatch, "verify_signature")
        relayed = [out for tx in flood for out in logic.handle_message(MSG_TX, tx.raw, "peer")]
        assert relayed == []
        assert logic.handle_message(MSG_TX, honest.raw, "peer") == [(MSG_TX, honest.raw, "*")]
        assert logic.state.mempool.oldest() == [honest]
        block = logic.maybe_mine(GENESIS_TS + 51)
        assert block is not None and block.transactions == (honest,)
        assert calls == [device.public_key]

    def test_peer_gossip_is_not_pooled_or_relayed(self, logic, monkeypatch):
        tx = self.anchor(keypair_for("intruder"))
        calls = count_calls(monkeypatch, "verify_signature")
        assert logic.handle_message(MSG_TX, tx.raw, "peer") == []
        assert tx.id not in logic.state.mempool
        assert calls == []

    def test_simulated_submission_is_refused(self, logic, monkeypatch):
        tx = self.anchor(keypair_for("intruder"))
        calls = count_calls(monkeypatch, "verify_signature")
        assert lone_node(logic).submit("m", tx) == "unregistered-submitter"
        assert tx.id not in logic.state.mempool
        assert calls == []

    def test_file_submission_is_refused(self, tmp_path, miner, device, monkeypatch, capsys):
        """``submit`` to a chain file exits 2, names the rule and leaves the
        mempool file as it was; it checks only the chain's 2 signatures."""
        chain, _ = build_chain(miner, device, [])
        path, key, log = tmp_path / "chain.jsonl", tmp_path / "intruder.key", tmp_path / "bad.log"
        write_chain(str(path), chain.blocks)
        save_keypair(str(key), keypair_for("intruder"))
        log.write_bytes(b"evil entry\n")
        pool_path = tmp_path / "mempool.jsonl"
        append_mempool_file(str(pool_path), [self.anchor(device, b"pending").raw])
        before = pool_path.read_bytes()
        calls = count_calls(monkeypatch, "verify_signature")
        argv = ["submit", "--key", str(key), "--chain", str(path), "--log", str(log)]
        assert handle_command(argv) == 2
        assert capsys.readouterr() == ("", "rejected: unregistered-submitter\n")
        assert pool_path.read_bytes() == before
        assert calls == [miner.public_key, miner.public_key]


def test_mine_all_verifies_each_pending_tx_once(tmp_path, miner, device, monkeypatch, capsys):
    """``bloff mine --all`` over 150 pending anchors: ``load_chain`` checks the
    chain's 2 txs, both the miner's own, by signing them again, then each
    pending tx is verified once, not again when its block is appended."""
    chain, _ = build_chain(miner, device, [])
    path, key = tmp_path / "chain.jsonl", tmp_path / "miner.key"
    write_chain(str(path), chain.blocks)
    save_keypair(str(key), miner)
    pending = [
        ledger.build_anchor_tx(sha256_digest(b"%d" % i), "dev", GENESIS_TS + 10, device)
        for i in range(150)
    ]
    raw = [tx.raw for tx in pending]
    append_mempool_file(str(tmp_path / "mempool.jsonl"), raw)
    checks = count_checks(monkeypatch)
    assert handle_command(["mine", "--key", str(key), "--chain", str(path), "--all"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert checks.counts() == (150, 2)
    assert set(checks.resigns) == {miner.public_key}


class TestLoadChecksOnlyTheChain:
    """A chain load checks the chain's txs and no tx of the calling
    command: ``mine`` checks each pending tx once, in ``Mempool.add``, and
    ``submit`` none of the txs it signs. The affinity mask is patched to two
    CPUs, as in ``TestForkedSignaturePrePass``; the chain has 2 txs, both
    signed by the miner, so ``mine`` checks them by signing again, and the
    call 200."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    @staticmethod
    def anchors(device, count=200):
        return [
            ledger.build_anchor_tx(sha256_digest(b"%d" % i), "dev", GENESIS_TS + 10, device)
            for i in range(count)
        ]

    @staticmethod
    def workspace(directory, miner, blocks, pending):
        """A chain file of ``blocks``, a mempool file of ``pending`` and the
        miner's key file in ``directory``; the paths of the chain and key."""
        directory.mkdir(exist_ok=True)
        path, key = directory / "chain.jsonl", directory / "miner.key"
        write_chain(str(path), blocks)
        save_keypair(str(key), miner)
        append_mempool_file(str(directory / "mempool.jsonl"), [tx.raw for tx in pending])
        return str(path), str(key)

    @staticmethod
    def mine(path, key):
        return handle_command(
            ["mine", "--key", key, "--chain", path, "--all", "--timestamp", str(GENESIS_TS + 20)]
        )

    def test_mine_checks_each_pending_tx_once_as_serially(
        self, tmp_path, miner, device, monkeypatch, capsys
    ):
        chain, _ = build_chain(miner, device, [])
        pending = self.anchors(device)
        checks = count_checks(monkeypatch)
        path, key = self.workspace(tmp_path / "forked", miner, chain.blocks, pending)
        assert self.mine(path, key) == 0
        forked = capsys.readouterr()
        assert checks.counts() == (200, 2)

        def no_fork():
            raise OSError("no fork")

        monkeypatch.setattr(os, "fork", no_fork)
        checks.clear()
        serial_path, key = self.workspace(tmp_path / "serial", miner, chain.blocks, pending)
        assert self.mine(serial_path, key) == 0
        serial = capsys.readouterr()
        assert checks.counts() == (200, 2)
        assert [json.loads(line)["txs"] for line in forked.out.splitlines()] == [100, 100]
        assert (forked.out, forked.err) == (serial.out, serial.err)
        with open(path, "rb") as fh, open(serial_path, "rb") as serial_fh:
            assert fh.read() == serial_fh.read()

    def submit(self, tmp_path, miner, submitter, monkeypatch):
        """``submit`` of a 200-line log by ``submitter`` on a 2-tx chain; its
        exit code and the signature checks made in this process."""
        chain, _ = build_chain(miner, keypair_for("device-0"), [])
        path, _ = self.workspace(tmp_path, miner, chain.blocks, [])
        key, log = tmp_path / "submitter.key", tmp_path / "batch.log"
        save_keypair(str(key), submitter)
        log.write_text("".join(f"line {i}\n" for i in range(200)))
        calls = count_calls(monkeypatch, "verify_signature")
        return handle_command(["submit", "--key", str(key), "--chain", path, "--log", str(log)]), calls

    def test_submit_checks_only_the_chain(self, tmp_path, miner, device, monkeypatch, capsys):
        code, calls = self.submit(tmp_path, miner, device, monkeypatch)
        assert (code, len(calls)) == (0, 2)
        assert len(capsys.readouterr().out.splitlines()) == 200

    def test_rejected_submit_checks_only_the_chain(self, tmp_path, miner, monkeypatch, capsys):
        code, calls = self.submit(tmp_path, miner, keypair_for("nobody"), monkeypatch)
        assert code == 2
        assert capsys.readouterr().err == "rejected: unregistered-submitter\n"
        assert len(calls) == 2

    def test_bad_pending_signature_is_skipped(
        self, tmp_path, miner, device, monkeypatch, capsys
    ):
        chain, _ = build_chain(miner, device, [])
        pending = self.anchors(device)
        signature = bytearray(pending[10].signature)
        signature[0] ^= 1
        pending[10] = with_signature(pending[10], signature)
        path, key = self.workspace(tmp_path, miner, chain.blocks, pending)
        checks = count_checks(monkeypatch)
        assert self.mine(path, key) == 0
        out, err = capsys.readouterr()
        assert err == "skipping pending tx: invalid:bad-signature\n"
        assert [json.loads(line)["txs"] for line in out.splitlines()] == [100, 99]
        assert checks.counts() == (200, 2)

    def test_rule_failure_checks_no_pending_tx(self, tmp_path, miner, device, monkeypatch, capsys):
        chain, _ = build_chain(miner, device, [])
        stranger = keypair_for("nobody")
        pool = Mempool()
        tx = ledger.build_anchor_tx(sha256_digest(b"stranger"), "s", GENESIS_TS + 5, stranger)
        pool.add(tx, build_chain(miner, stranger, [])[0])  # a branch that registers the stranger
        registry = {**chain.registered_nodes, stranger.public_key: NodeRole.DEVICE}
        block = mine_block(pool, chain.tip.header, 0, miner, GENESIS_TS + 5, registry)
        path, key = self.workspace(tmp_path, miner, chain.blocks + [block], self.anchors(device))
        checks = count_checks(monkeypatch)
        assert self.mine(path, key) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: invalid chain at height 3: unregistered-submitter\n")
        # Heights 1-2, the miner's own txs, then block 3 up to its validly
        # signed anchor, which the in-order fold verifies.
        assert checks.counts() == (1, 2)
        assert checks.verifies == [stranger.public_key]


    def test_mine_drops_a_pending_anchor_of_an_unregistered_key(
        self, tmp_path, miner, device, monkeypatch, capsys
    ):
        """A pending anchor whose key the chain never registered is skipped
        before its signature is checked, and is not written back."""
        chain, _ = build_chain(miner, device, [])
        stranger = keypair_for("nobody")
        tx = ledger.build_anchor_tx(sha256_digest(b"stranger"), "s", GENESIS_TS + 5, stranger)
        path, key = self.workspace(tmp_path, miner, chain.blocks, [tx])
        checks = count_checks(monkeypatch)
        assert self.mine(path, key) == 2
        assert capsys.readouterr() == (
            "",
            "skipping pending tx: invalid:unregistered-submitter\nmining failed: no-work\n",
        )
        assert checks.counts() == (0, 2)  # the chain's 2 txs, the miner's own
        assert (tmp_path / "mempool.jsonl").read_bytes() == b""


class TestCheckpoint:
    """A keyed command's load skips the signature checks of the blocks its
    key's checkpoint vouches for, and only those, and checks its key's own
    txs by signing them again. One CPU is patched in, so that every check is
    made in this process; the chain starts with 2 txs, both the miner's.
    Each command's checks are counted as (verifies, re-signs)."""

    @pytest.fixture(autouse=True)
    def one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    @pytest.fixture
    def ws(self, tmp_path, miner, device, monkeypatch, capsys):
        chain, _ = build_chain(miner, device, [])
        path = tmp_path / "chain.jsonl"
        write_chain(str(path), chain.blocks)
        keys = {"miner": tmp_path / "miner.key", "device": tmp_path / "device.key"}
        save_keypair(str(keys["miner"]), miner)
        save_keypair(str(keys["device"]), device)
        checks = count_checks(monkeypatch)
        batches = iter(range(1000))

        def run(argv):
            """The signature checks of one command, which must succeed."""
            checks.clear()
            assert handle_command(argv) == 0
            capsys.readouterr()
            return checks.counts()

        def submit(lines):
            log = tmp_path / "batch.log"
            batch = next(batches)
            log.write_text("".join(f"batch {batch} line {i}\n" for i in range(lines)))
            return run(["submit", "--key", str(keys["device"]), "--chain", str(path), "--log", str(log)])

        def mine():
            return run(["mine", "--key", str(keys["miner"]), "--chain", str(path), "--all"])

        sidecars = {
            who: tmp_path / f"chain.jsonl.checked.{node_id(pair.public_key)}"
            for who, pair in (("miner", miner), ("device", device))
        }
        return SimpleNamespace(path=str(path), submit=submit, mine=mine, sidecars=sidecars)

    def test_second_mine_checks_only_its_pool(self, ws):
        assert ws.submit(150) == (2, 0)
        assert ws.mine() == (150, 2)
        assert ws.submit(30) == (0, 150)  # the two blocks mined since its last call
        assert ws.mine() == (30, 0)  # no chain tx: only each pending tx, once

    def test_submit_after_mine_checks_only_the_new_blocks(self, ws):
        assert ws.submit(150) == (2, 0)
        assert ws.mine() == (150, 2)
        assert ws.submit(10) == (0, 150)
        assert ws.mine() == (10, 0)
        assert ws.submit(10) == (0, 10)
        assert ws.submit(10) == (0, 0)  # the chain did not move

    @staticmethod
    def tampered(line, foreign, how):
        """``line``, a sidecar's text, altered in one way ``how``."""
        height, tip, length, digest, mac = line.rstrip("\n").split(" ")

        def flip(digits):
            return ("1" if digits[0] == "0" else "0") + digits[1:]

        if how == "truncated":
            return line[: len(line) // 2]
        if how == "foreign":
            return foreign
        if how == "height":
            height = str(int(height) - 1)
        if how == "hash":
            tip = flip(tip)
        if how == "length":
            length = str(int(length) + 1)
        if how == "digest":
            digest = flip(digest)
        if how == "mac":
            mac = flip(mac)
        return f"{height} {tip} {length} {digest} {mac}\n"

    @pytest.mark.parametrize(
        "how", ["mac", "height", "hash", "length", "digest", "truncated", "foreign"]
    )
    def test_a_sidecar_that_does_not_verify_costs_one_full_check(self, ws, how):
        assert ws.submit(150) == (2, 0)
        assert ws.mine() == (150, 2)
        assert ws.submit(10) == (0, 150)
        assert ws.mine() == (10, 0)
        assert ws.submit(1) == (0, 10)
        # Both keys' sidecars now name the same tip, at height 5: the miner's
        # 2 txs are verified, and the device's 160 signed again.
        full = (2, 150 + 10)
        assert sum(full) == len(load_chain(ws.path).tx_ids)
        own, foreign = (ws.sidecars[who].read_text() for who in ("device", "miner"))
        assert own.split(" ")[:2] == foreign.split(" ")[:2] == ["5", load_chain(ws.path).tip.hash.hex()]
        ws.sidecars["device"].write_text(self.tampered(own, foreign, how))
        assert ws.submit(1) == full
        assert ws.sidecars["device"].read_text() == own  # rewritten by the full check
        assert ws.submit(1) == (0, 0)
        ws.sidecars["device"].unlink()
        assert ws.submit(1) == full


def test_partition_scenario_checks_each_signature_once_per_node(monkeypatch):
    """Each node of ``conftest.partition_scenario`` checks its genesis
    signatures once while the network is built, and during the run checks
    no signature twice and none of its genesis again."""
    current = [None]
    checks = []
    original = ledger.verify_signature

    def verify_signature(pubkey, message, signature):
        checks.append((current[0], bytes(signature)))
        return original(pubkey, message, signature)

    def as_node(method):
        def run(self, *args):
            current[0] = self.node_id
            try:
                return method(self, *args)
            finally:
                current[0] = None

        return run

    monkeypatch.setattr(ledger, "verify_signature", verify_signature)
    for name in ("handle_message", "maybe_mine"):
        monkeypatch.setattr(NodeLogic, name, as_node(getattr(NodeLogic, name)))
    scenario = partition_scenario()
    report = run_scenario(scenario).report
    assert report["converged"]

    nodes = [n["id"] for n in scenario["nodes"]]
    at_build = sorted(sig for node, sig in checks if node is None)
    genesis_sigs = sorted(set(at_build))
    assert len(genesis_sigs) == 2  # one self-registration per csp-miner
    assert at_build == sorted(genesis_sigs * len(nodes))
    during_run = [(node, sig) for node, sig in checks if node is not None]
    assert len(during_run) == len(set(during_run))
    assert not {sig for _, sig in during_run} & set(genesis_sigs)


class TestReaderCheckpoint:
    """``verify`` and ``inspect`` load a chain file with the OS user's reader
    key and its checkpoint, both kept in that user's cache directory, so a
    load repeated by the same user checks only the signatures above the tip
    its last load validated, and the chain's directory gets no file. One
    CPU is patched in; each command's checks are counted as (verifies,
    re-signs). The chain holds 32 txs: the miner's 2, then 30 anchors in 3
    blocks."""

    FULL = (32, 0)

    @pytest.fixture(autouse=True)
    def one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    @pytest.fixture
    def ws(self, tmp_path, miner, device, monkeypatch, capsys):
        chain, _ = build_chain(miner, device, [b"entry %d" % i for i in range(30)], txs_per_block=10)
        path = tmp_path / "chain.jsonl"
        write_chain(str(path), chain.blocks)
        (tmp_path / "presented.log").write_bytes(b"entry 7\n")
        checks = count_checks(monkeypatch)

        def run(*argv):
            """The exit code, output and signature checks of one command."""
            checks.clear()
            code = handle_command([*argv, "--chain", str(path)])
            out, err = capsys.readouterr()
            return code, out, err, checks.counts()

        def sidecar():
            return pathlib.Path(reader_checkpoint(str(path)).path)

        verify = ("verify", "--log", str(tmp_path / "presented.log"))
        return SimpleNamespace(tmp=tmp_path, path=path, run=run, sidecar=sidecar, verify=verify)

    @pytest.mark.parametrize(
        "argv", [("verify", "--log", "presented.log"), ("inspect",), ("inspect", "--height", "4")]
    )
    def test_second_load_checks_no_signature_and_prints_the_same(self, ws, monkeypatch, argv):
        monkeypatch.chdir(ws.tmp)
        code, out, err, checks = ws.run(*argv)
        assert (code, err, checks) == (0, "", self.FULL)
        assert ws.run(*argv) == (0, out, "", (0, 0))
        assert ws.sidecar().read_text().split(" ")[0] == "5"
        assert sorted(os.listdir(ws.tmp)) == ["chain.jsonl", "presented.log"]

    def test_a_read_only_chain_directory_keeps_the_checkpoint(self, ws):
        """A chain directory the reader cannot write, such as an evidence
        share, costs one full check and then none, and gets no file."""
        ws.tmp.chmod(0o500)
        try:
            assert ws.run(*ws.verify)[3] == self.FULL
            assert ws.run(*ws.verify)[3] == (0, 0)
        finally:
            ws.tmp.chmod(0o700)
        assert sorted(os.listdir(ws.tmp)) == ["chain.jsonl", "presented.log"]

    def test_verify_after_mine_checks_only_the_new_block(self, ws, miner, device):
        keys = {"miner": ws.tmp / "miner.key", "device": ws.tmp / "device.key"}
        save_keypair(str(keys["miner"]), miner)
        save_keypair(str(keys["device"]), device)
        (ws.tmp / "batch.log").write_text("".join(f"new line {i}\n" for i in range(6)))
        assert ws.run(*ws.verify)[3] == self.FULL
        assert ws.run("submit", "--key", str(keys["device"]), "--log", str(ws.tmp / "batch.log"))[0] == 0
        code, out, _, _ = ws.run("mine", "--key", str(keys["miner"]))
        assert (code, json.loads(out)["txs"]) == (0, 6)
        assert ws.run(*ws.verify)[3] == (6, 0)
        assert ws.run(*ws.verify)[3] == (0, 0)

    @pytest.mark.parametrize("how", ["foreign", "mac", "truncated"])
    def test_a_sidecar_that_does_not_verify_costs_one_full_check(self, ws, miner, how):
        """A foreign sidecar (the miner's, naming the same tip), an altered
        one and a torn one each cost one full check, which writes the
        reader's line again."""
        code, out, _, checks = ws.run(*ws.verify)
        assert checks == self.FULL
        own = ws.sidecar().read_text()
        Checkpoint(str(ws.path), miner).write(load_chain(str(ws.path)))
        foreign = (ws.tmp / f"chain.jsonl.checked.{node_id(miner.public_key)}").read_text()
        assert foreign.split(" ")[:2] == own.split(" ")[:2]
        ws.sidecar().write_text(TestCheckpoint.tampered(own, foreign, how))
        assert ws.run(*ws.verify) == (code, out, "", self.FULL)
        assert ws.sidecar().read_text() == own
        assert ws.run(*ws.verify) == (code, out, "", (0, 0))
        ws.sidecar().unlink()
        assert ws.run(*ws.verify) == (code, out, "", self.FULL)

    @pytest.mark.parametrize(
        "how",
        [
            "key-mode-0644",
            "key-torn",
            "cache-is-a-file",
            pytest.param("cache-read-only", marks=ROOT_WRITES_ANYWHERE),
            "sidecar-is-a-directory",
            "sidecar-is-a-symlink",
        ],
    )
    def test_reader_key_or_sidecar_unusable_means_a_full_check(
        self, ws, reader_cache, monkeypatch, how
    ):
        """A reader key that cannot be read or made, or a sidecar that cannot
        be written, leaves no checkpoint: each load checks every signature
        and prints the verdict and exit code of a load with a working key,
        and nothing on stderr. A symlink in the sidecar's place is not
        followed, so its target keeps its bytes."""
        code, out, _, _ = ws.run(*ws.verify)
        key_path, sidecar = reader_cache / "bloff" / "reader.key", ws.sidecar()
        sidecar.unlink()
        if how == "key-mode-0644":
            key_path.chmod(0o644)
        elif how == "key-torn":
            key_path.write_text(key_path.read_text()[:40])
        elif how == "cache-is-a-file":
            monkeypatch.setenv("XDG_CACHE_HOME", str(ws.tmp / "presented.log"))
        elif how == "cache-read-only":
            key_path.unlink()
            key_path.parent.chmod(0o500)
        elif how == "sidecar-is-a-directory":
            sidecar.mkdir()
        elif how == "sidecar-is-a-symlink":
            sidecar.symlink_to(ws.tmp / "presented.log")
        key_text = key_path.read_text() if key_path.exists() else None
        try:
            for _ in range(2):
                assert ws.run(*ws.verify) == (code, out, "", self.FULL)
        finally:
            key_path.parent.chmod(0o700)
        assert sidecar.is_symlink() or not sidecar.is_file()  # no line was written
        assert (ws.tmp / "presented.log").read_bytes() == b"entry 7\n"
        assert (key_path.read_text() if key_path.exists() else None) == key_text  # not replaced


class TestBoundReaderCheckpoint:
    """The reader's line names the chain file's length and SHA-256, so a
    ``verify`` or ``inspect`` of exactly those bytes loads a ``ChainView``:
    it parses only the blocks it reads, and checks no rule and no signature.
    Other bytes, or a line naming other ones, cost one full check, as a load
    without the line does. One CPU is patched in. A command's cost is (lines
    parsed, blocks validated, (verifies, re-signs)). The chain holds the
    miner's 2 txs, then 30 anchors in 3 blocks: ``entry 0`` to ``entry 4``
    are anchored in block 3 and again in block 5."""

    FULL = (5, 5, (32, 0))

    @pytest.fixture(autouse=True)
    def one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    @pytest.fixture
    def ws(self, tmp_path, miner, device, monkeypatch, capsys):
        chain, _ = build_chain(miner, device, [b"entry %d" % (i % 25) for i in range(30)], txs_per_block=10)
        path = tmp_path / "chain.jsonl"
        write_chain(str(path), chain.blocks)
        checks = count_checks(monkeypatch)
        parsed = count_calls(monkeypatch, "block_from_json_line", store_mod)
        validated = count_calls(monkeypatch, "validate_block")

        def run(*argv):
            """The exit code and output of one command, and its cost."""
            parsed.clear(), validated.clear(), checks.clear()
            code = handle_command([*argv, "--chain", str(path)])
            out, err = capsys.readouterr()
            return code, out, err, (len(parsed), len(validated), checks.counts())

        def verify(record):
            (tmp_path / "presented.log").write_bytes(record + b"\n")
            return run("verify", "--log", str(tmp_path / "presented.log"))

        def keyless(record):
            """What ``verify`` of ``record`` prints after a load with no checkpoint."""
            return verify_log(record, load_chain(str(path))).to_json() + "\n"

        def sidecar():
            return pathlib.Path(reader_checkpoint(str(path)).path)

        return SimpleNamespace(
            chain=chain, path=path, run=run, verify=verify, keyless=keyless, parsed=parsed, sidecar=sidecar
        )

    @pytest.mark.parametrize("record", [b"entry 0", b"entry 7", b"entry 99"])
    def test_warm_verify_parses_only_the_lines_holding_the_record(self, ws, record):
        """``entry 0`` is in lines 3 and 5, ``entry 7`` in line 4, and
        ``entry 99`` nowhere."""
        out = ws.keyless(record)
        assert ws.verify(record)[1:] == (out, "", self.FULL)
        holding = [line for line in ws.path.read_text().splitlines() if sha256_digest(record).hex() in line]
        assert len(holding) == {b"entry 0": 2, b"entry 7": 1, b"entry 99": 0}[record]
        assert ws.verify(record)[1:] == (out, "", (len(holding), 0, (0, 0)))
        assert ws.parsed == holding

    @pytest.mark.parametrize(
        "argv, parses",
        [
            (("inspect",), 5),
            (("inspect", "--height", "5"), 1),
            (("inspect", "--tx", "TXID"), 5),
            (("verify", "--log", "presented.log", "--proof-out", "proof.json"), 2),
        ],
    )
    def test_a_view_prints_the_bytes_of_a_full_load(self, ws, monkeypatch, argv, parses):
        """``inspect`` parses the blocks it prints or searches, ``--tx`` each
        up to the one holding the tx (the last), and ``verify`` of ``entry 3``
        its two blocks; each prints what the full load printed, and the
        proof has the same bytes."""
        monkeypatch.chdir(ws.path.parent)
        (ws.path.parent / "presented.log").write_bytes(b"entry 3\n")
        proof = ws.path.parent / "proof.json"
        argv = [ws.chain.blocks[4].transactions[6].id.hex() if arg == "TXID" else arg for arg in argv]
        code, out, err, cost = ws.run(*argv)
        assert (code, err, cost) == (0, "", self.FULL)
        proof_bytes = proof.read_bytes() if "--proof-out" in argv else None
        proof.unlink(missing_ok=True)
        assert ws.run(*argv) == (code, out, err, (parses, 0, (0, 0)))
        assert (proof.read_bytes() if "--proof-out" in argv else None) == proof_bytes

    def test_a_view_agrees_with_a_full_load(self, ws):
        """On the height, the blocks, and the anchor locations of every
        anchored digest and of every block's prev_hash, merkle_root and
        hash, whose hex the lines hold but which anchor nothing."""
        load_chain_target(str(ws.path))
        view, full = load_chain_target(str(ws.path)), load_chain(str(ws.path))
        assert isinstance(view, ChainView) and view.height == full.height == 5
        assert view.blocks == full.blocks and view.blocks[-1] == full.tip
        assert len(full.anchor_index) == 25
        for log_hash in full.anchor_index:
            assert view.anchor_locations(log_hash) == full.anchor_locations(log_hash)
        text = ws.path.read_text()
        for block in full.blocks:
            for digest in (block.header.prev_hash, block.header.merkle_root, block.hash):
                assert digest.hex() in text
                assert view.anchor_locations(digest) == full.anchor_locations(digest) == []

    def test_verify_after_mine_checks_the_new_block_then_uses_the_view(self, ws, miner, device):
        keys = {"miner": ws.path.parent / "miner.key", "device": ws.path.parent / "device.key"}
        save_keypair(str(keys["miner"]), miner)
        save_keypair(str(keys["device"]), device)
        (ws.path.parent / "batch.log").write_text("".join(f"new line {i}\n" for i in range(6)))
        assert ws.verify(b"entry 7")[3] == self.FULL
        line = ws.sidecar().read_text()
        assert ws.run("submit", "--key", str(keys["device"]), "--log", str(ws.path.parent / "batch.log"))[0] == 0
        assert ws.run("mine", "--key", str(keys["miner"]))[0] == 0
        assert ws.verify(b"entry 7")[1:] == (ws.keyless(b"entry 7"), "", (6, 6, (6, 0)))
        data = ws.path.read_bytes()
        assert ws.sidecar().read_text() != line
        assert ws.sidecar().read_text().split(" ")[:4] == [
            "6", load_chain(str(ws.path)).tip.hash.hex(), str(len(data)), hashlib.sha256(data).hexdigest()
        ]
        assert ws.verify(b"entry 7")[1:] == (ws.keyless(b"entry 7"), "", (1, 0, (0, 0)))

    @pytest.mark.parametrize(
        "how, cost",
        [
            ("height", FULL),
            ("length", FULL),
            ("digest", FULL),
            ("mac", FULL),
            ("names-another-height", (5, 5, (10, 0))),
            ("names-another-length", (5, 5, (0, 0))),
            ("names-another-digest", (5, 5, (0, 0))),
            ("truncated-file", (4, 4, (22, 0))),
        ],
    )
    def test_a_line_that_does_not_name_the_file_costs_one_full_check(self, ws, how, cost):
        """An altered field breaks the MAC, so the line names nothing. A line
        the reader's key did write for other bytes names a tip but not this
        file: one with another height than the file's line count, another
        length with the file's digest, or another digest. A file cut by its
        last block is another file. Each costs one load without the view,
        which writes the line again; the next load is a view."""
        assert ws.verify(b"entry 7")[3] == self.FULL
        own, data = ws.sidecar().read_text(), ws.path.read_bytes()
        full, filed = load_chain(str(ws.path)), (len(data), hashlib.sha256(data).digest())
        checkpoint = reader_checkpoint(str(ws.path))
        if how == "names-another-height":
            checkpoint.write(ledger.validate_chain(full.blocks[:4]), filed)
        elif how == "names-another-length":
            checkpoint.write(full, (len(data) + 1, filed[1]))
        elif how == "names-another-digest":
            checkpoint.write(full, (len(data), hashlib.sha256(data + b"\n").digest()))
        elif how == "truncated-file":
            ws.path.write_bytes(data[: data.rindex(b"\n", 0, -1) + 1])
        else:
            ws.sidecar().write_text(TestCheckpoint.tampered(own, None, how))
        assert ws.sidecar().read_text() != own or how == "truncated-file"
        assert ws.verify(b"entry 7")[1:] == (ws.keyless(b"entry 7"), "", cost)
        data = ws.path.read_bytes()
        assert Checkpoint(str(ws.path), checkpoint.keypair, str(ws.sidecar())).filed == (
            len(data), hashlib.sha256(data).digest()
        )
        assert ws.verify(b"entry 7")[1:] == (ws.keyless(b"entry 7"), "", (1, 0, (0, 0)))

    def test_a_file_with_one_extra_byte_fails_as_without_the_line(self, ws):
        """Each load of it parses every line and fails as a keyless load does,
        and leaves the line, so the restored file loads as a view again."""
        assert ws.verify(b"entry 7")[3] == self.FULL
        own, data = ws.sidecar().read_text(), ws.path.read_bytes()
        ws.path.write_bytes(data + b"\n")
        with pytest.raises(ledger.ChainFileError) as keyless:
            load_chain(str(ws.path))
        for _ in range(2):
            assert ws.verify(b"entry 7")[:4] == (2, "", f"error: {keyless.value}\n", (6, 0, (0, 0)))
        assert ws.sidecar().read_text() == own
        ws.path.write_bytes(data)
        assert ws.verify(b"entry 7")[1:] == (ws.keyless(b"entry 7"), "", (1, 0, (0, 0)))

    def test_a_dropped_view_is_freed_without_the_cyclic_collector(self, ws):
        load_chain_target(str(ws.path))
        view = load_chain_target(str(ws.path))
        assert isinstance(view, ChainView)
        assert view.anchor_locations(sha256_digest(b"entry 0")) == [(3, 0), (5, 5)]
        assert [block.hash for block in view.blocks] == [block.hash for block in ws.chain.blocks]
        gc.disable()
        try:
            ref = weakref.ref(view)
            del view
            assert ref() is None
        finally:
            gc.enable()
