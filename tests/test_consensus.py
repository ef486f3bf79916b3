"""Mining, mempool, fork choice and block application."""

import dataclasses
import random

import pytest

from bloff import ledger
from bloff.consensus import (
    Mempool,
    MiningError,
    NodeState,
    fork_rank,
    mine_block,
)
from bloff.crypto import Digest, sha256_digest
from bloff.ledger import (
    Block,
    BlockHeader,
    Chain,
    NodeRole,
    block_hash,
    build_anchor_tx,
    build_registration_tx,
    decode_tx,
    leading_zero_bits,
    make_genesis,
    merkle_root,
    validate_chain,
)
from bloff.node import NodeLogic
from conftest import GENESIS_TS, assert_pool_admissible, build_chain, keypair_for, with_signature
from oracles import oracle_connect_run, oracle_leading_zero_bits


def anchor_for(keypair, payload, ts=GENESIS_TS + 5):
    return build_anchor_tx(sha256_digest(payload), "dev", ts, keypair)


@pytest.fixture
def base(miner, device):
    """Two-block chain: genesis plus the device registration."""
    chain, _ = build_chain(miner, device, [])
    return chain


class TestMempool:
    def test_accept_then_duplicate(self, device, base):
        pool = Mempool()
        tx = anchor_for(device, b"one")
        assert pool.add(tx, base) == "accepted"
        assert pool.add(tx, base) == "duplicate"
        assert len(pool) == 1

    def test_broken_signature_invalid(self, rng, device, base):
        pool = Mempool()
        for _ in range(50):
            tx = anchor_for(device, rng.randbytes(8))
            raw = bytearray(tx.signature)
            raw[rng.randrange(64)] ^= 1 << rng.randrange(8)
            bad = with_signature(tx, raw)
            assert pool.add(bad, base) == "invalid:bad-signature"
        assert len(pool) == 0

    def test_capacity(self, device, base):
        pool = Mempool(capacity=3)
        for i in range(3):
            assert pool.add(anchor_for(device, bytes([i])), base) == "accepted"
        assert pool.add(anchor_for(device, b"overflow"), base) == "full"

    def test_readd_ignores_capacity(self, device, base):
        pool = Mempool(capacity=1)
        pool.add(anchor_for(device, b"a"), base)
        pool.readd(anchor_for(device, b"b"), base)
        assert len(pool) == 2

    def test_oldest_order_preserved(self, device, base):
        pool = Mempool()
        txs = [anchor_for(device, bytes([i])) for i in range(5)]
        for tx in txs:
            pool.add(tx, base)
        assert pool.oldest() == txs

    def test_chain_registry_wins_over_a_pooled_registration(self, miner, base):
        """Key F is pooled as a device but registered on the chain as a
        stakeholder: the chain decides, so F's anchor is refused unchecked."""
        fresh = keypair_for("fresh-device")
        pool = Mempool()
        assert pool.add(build_registration_tx(fresh.public_key, NodeRole.DEVICE, miner), base) == "accepted"
        chain = mined(base, miner, [build_registration_tx(fresh.public_key, NodeRole.STAKEHOLDER, miner)])
        assert pool.add(anchor_for(fresh, b"first"), chain) == "invalid:role-not-permitted"
        assert pool.add(anchor_for(fresh, b"first"), base) == "accepted"


class TestCheckPow:
    def test_difficulty_zero_always_true(self, rng):
        for _ in range(20):
            header = BlockHeader(
                prev_hash=Digest(rng.randbytes(32)),
                merkle_root=Digest(rng.randbytes(32)),
                timestamp=rng.randrange(2**40),
                difficulty=0,
                nonce=rng.randrange(2**40),
            )
            assert leading_zero_bits(block_hash(header)) >= 0

    def test_bit_boundary_00ff(self):
        digest = bytes([0x00, 0xFF]) + bytes(30)
        assert leading_zero_bits(digest) == 8

    def test_oracle_agreement_1000_random(self, rng):
        for _ in range(1000):
            digest = rng.randbytes(32)
            assert leading_zero_bits(digest) == oracle_leading_zero_bits(digest)

    def test_oracle_agreement_edge_patterns(self):
        edges = [bytes(32), b"\x80" + bytes(31), bytes(31) + b"\x01", b"\x01" + bytes(31)]
        single_bits = [(1 << bit).to_bytes(32, "big") for bit in range(256)]
        for digest in edges + single_bits:
            assert leading_zero_bits(digest) == oracle_leading_zero_bits(digest)


class TestMineBlock:
    def test_difficulty_zero_first_nonce_seals(self, miner, device, base):
        pool = Mempool()
        pool.add(anchor_for(device, b"payload"), base)
        block = mine_block(pool, base.tip.header, 0, miner, GENESIS_TS + 5, base.registered_nodes)
        assert block.header.nonce == 0
        assert leading_zero_bits(block_hash(block.header)) >= 0

    def test_mined_block_validates_against_parent(self, miner, device, base):
        pool = Mempool()
        pool.add(anchor_for(device, b"payload"), base)
        block = mine_block(pool, base.tip.header, 4, miner, GENESIS_TS + 5, base.registered_nodes)
        assert validate_chain(base.blocks + [block]).height == base.height + 1

    def test_empty_pool_is_no_work(self, miner, base):
        with pytest.raises(MiningError) as err:
            mine_block(Mempool(), base.tip.header, 0, miner, GENESIS_TS, base.registered_nodes)
        assert err.value.reason == "no-work"

    def test_unregistered_miner_refused(self, device, base):
        pool = Mempool()
        pool.add(anchor_for(device, b"payload"), base)
        with pytest.raises(MiningError) as err:
            mine_block(pool, base.tip.header, 0, device, GENESIS_TS, base.registered_nodes)
        assert err.value.reason == "miner-not-registered"

    def test_registration_then_anchor_same_block(self, miner, base):
        fresh = keypair_for("fresh-device")
        pool = Mempool()
        pool.add(build_registration_tx(fresh.public_key, NodeRole.DEVICE, miner), base)
        pool.add(anchor_for(fresh, b"first"), base)
        block = mine_block(pool, base.tip.header, 0, miner, GENESIS_TS + 5, base.registered_nodes)
        assert len(block.transactions) == 2
        assert validate_chain(base.blocks + [block]).height == base.height + 1

    def test_timestamp_clamped_to_parent(self, miner, device, base):
        pool = Mempool()
        pool.add(anchor_for(device, b"payload"), base)
        block = mine_block(pool, base.tip.header, 0, miner, 0, base.registered_nodes)
        assert block.header.timestamp == base.tip.header.timestamp

    def test_cap_respected(self, miner, device, base):
        pool = Mempool()
        for i in range(7):
            pool.add(anchor_for(device, bytes([i])), base)
        block = mine_block(
            pool, base.tip.header, 0, miner, GENESIS_TS + 5, base.registered_nodes, block_tx_cap=3
        )
        assert len(block.transactions) == 3

    def test_deterministic_for_fixed_inputs(self, miner, device, base):
        def build_pool():
            pool = Mempool()
            for i in range(3):
                pool.add(anchor_for(device, bytes([i])), base)
            return pool

        first = mine_block(build_pool(), base.tip.header, 6, miner, GENESIS_TS + 5, base.registered_nodes)
        second = mine_block(build_pool(), base.tip.header, 6, miner, GENESIS_TS + 5, base.registered_nodes)
        assert first == second

    def test_mean_attempts_difficulty_8(self, miner, device, base):
        """Geometric search: at 8 leading zero bits the mean sits near 256."""
        attempts = []
        for i in range(50):
            pool = Mempool()
            pool.add(anchor_for(device, f"block {i}".encode()), base)
            block = mine_block(
                pool, base.tip.header, 8, miner, GENESIS_TS + 5 + i, base.registered_nodes
            )
            assert leading_zero_bits(block_hash(block.header)) >= 8
            attempts.append(block.header.nonce + 1)
        mean = sum(attempts) / len(attempts)
        assert 85 <= mean <= 768, mean


def extend(chain, miner, device, payloads, difficulty=0, ts_offset=10):
    pool = Mempool()
    for payload in payloads:
        pool.add(anchor_for(device, payload, ts=GENESIS_TS + ts_offset), chain)
    block = mine_block(
        pool, chain.tip.header, difficulty, miner, GENESIS_TS + ts_offset, chain.registered_nodes
    )
    return validate_chain(chain.blocks + [block])


def rank(chain):
    return fork_rank(chain.height, chain.tip.hash)


def preferred(a, b):
    """The chain fork choice picks of two: the one of the smaller rank."""
    return a if rank(a) <= rank(b) else b


class TestChooseChain:
    def test_reflexive(self, miner, device, base):
        assert rank(base) == rank(validate_chain(base.blocks))
        assert not rank(base) < rank(base)

    def test_longer_wins(self, miner, device, base):
        longer = extend(base, miner, device, [b"x"])
        assert rank(longer) < rank(base)
        assert preferred(longer, base) is longer
        assert preferred(base, longer) is longer

    def test_equal_length_smaller_tip_hash_wins(self, miner, device, base):
        fork_a = extend(base, miner, device, [b"side a"])
        fork_b = extend(base, miner, device, [b"side b"])
        assert fork_a.tip.hash != fork_b.tip.hash
        expected = fork_a if bytes(fork_a.tip.hash) < bytes(fork_b.tip.hash) else fork_b
        assert preferred(fork_a, fork_b) is expected
        assert preferred(fork_b, fork_a) is expected

    def test_total_order_over_random_forks(self, miner, device, base, rng):
        """Fork choice must behave like a sort key: antisymmetric, transitive."""
        forks = [base]
        for i in range(8):
            parent = forks[rng.randrange(len(forks))]
            forks.append(extend(parent, miner, device, [f"fork {i}".encode()]))

        def sort_key(chain):
            return (-chain.height, bytes(chain.tip.hash))

        for a in forks:
            for b in forks:
                winner = preferred(a, b)
                expected = min((a, b), key=sort_key)
                assert winner.tip.hash == expected.tip.hash
                # antisymmetry: order of arguments never changes the winner
                assert preferred(b, a).tip.hash == winner.tip.hash
                # distinct tips never tie
                assert (rank(a) == rank(b)) == (a.tip.hash == b.tip.hash)
        for a in forks:
            for b in forks:
                for c in forks:
                    ab = preferred(a, b)
                    bc = preferred(b, c)
                    ac = preferred(a, c)
                    if ab.tip.hash == a.tip.hash and bc.tip.hash == b.tip.hash:
                        assert ac.tip.hash == a.tip.hash  # transitivity


class TestApplyBlock:
    def test_own_block_advances_tip(self, miner, device, base):
        state = NodeState(best=base)
        pool = Mempool()
        pool.add(anchor_for(device, b"payload"), base)
        block = mine_block(pool, base.tip.header, 0, miner, GENESIS_TS + 5, base.registered_nodes)
        assert state.apply_block(block) == "accepted-best"
        assert state.best.height == base.height + 1
        assert state.best.tip.hash == block.hash

    def test_losing_fork_leaves_tip(self, miner, device, base):
        fork_a = extend(base, miner, device, [b"a"])
        fork_b = extend(base, miner, device, [b"b"])
        winner = preferred(fork_a, fork_b)
        loser = fork_a if winner is fork_b else fork_b
        state = NodeState(best=base)
        assert state.apply_block(winner.tip) == "accepted-best"
        assert state.apply_block(loser.tip) == "stale"
        assert state.best.tip.hash == winner.tip.hash

    def test_duplicate_block(self, miner, device, base):
        state = NodeState(best=base)
        block = extend(base, miner, device, [b"x"]).tip
        assert state.apply_block(block) == "accepted-best"
        assert state.apply_block(block) == "duplicate"

    def test_invalid_first_block_of_side_run_leaves_state_unchanged(self, miner, device, base):
        """A run on an interior block that would win if valid, but whose first
        block is invalid: ``best`` is moved to the fork point and back,
        field-equal, pool untouched. The invalid block alone could not win,
        so it is "stale", unchecked."""
        main = extend(extend(base, miner, device, [b"m1"]), miner, device, [b"m2"], ts_offset=11)
        side = extend(base, miner, device, [b"s1"], ts_offset=12)
        bad = Block(
            header=BlockHeader(
                prev_hash=side.tip.header.prev_hash, merkle_root=Digest(bytes(32)),
                timestamp=side.tip.header.timestamp, difficulty=0, nonce=0,
            ),
            transactions=side.tip.transactions,
        )
        pool = Mempool()
        pool.add(anchor_for(device, b"s2", ts=GENESIS_TS + 13), side)
        after = mine_block(pool, bad.header, 0, miner, GENESIS_TS + 13, side.registered_nodes)
        pool = Mempool()
        pool.add(anchor_for(device, b"s3", ts=GENESIS_TS + 14), side)
        last = mine_block(pool, after.header, 0, miner, GENESIS_TS + 14, side.registered_nodes)
        state = NodeState(best=main)
        state.mempool.add(anchor_for(device, b"pending"), state.best)
        pooled = state.mempool.oldest()
        assert state.adopt_chain([bad, after, last]) == []
        assert state.apply_block(bad) == "stale"
        assert state.best == main
        assert state.mempool.oldest() == pooled
        assert bad.hash not in state.best.heights

    def test_losing_side_block_leaves_state_unchanged(self, miner, device, base):
        """A side block that loses fork choice is "stale": not checked, not
        kept, ``best`` field-equal and the pool untouched."""
        main = extend(extend(base, miner, device, [b"m1"]), miner, device, [b"m2"], ts_offset=11)
        side = extend(base, miner, device, [b"s1"], ts_offset=12)
        state = NodeState(best=main)
        state.mempool.add(anchor_for(device, b"s1", ts=GENESIS_TS + 12), state.best)
        state.mempool.add(anchor_for(device, b"pending"), state.best)
        pooled = state.mempool.oldest()
        assert state.apply_block(side.tip) == "stale"
        assert side.tip.hash not in state.best.heights
        assert state.best == main
        assert state.mempool.oldest() == pooled

    def test_invalid_block_rejected_state_unchanged(self, miner, device, base):
        state = NodeState(best=base)
        block = extend(base, miner, device, [b"x"]).tip
        bad = type(block)(
            header=BlockHeader(
                prev_hash=block.header.prev_hash,
                merkle_root=Digest(bytes(32)),
                timestamp=block.header.timestamp,
                difficulty=0,
                nonce=0,
            ),
            transactions=block.transactions,
        )
        status = state.apply_block(bad)
        assert status.startswith("rejected:")
        assert "merkle-mismatch" in status
        assert state.best.tip.hash == base.tip.hash
        assert bad.hash not in state.best.heights

    def test_orphaned_and_stale_blocks_are_not_held(self, miner, device, base, rng):
        """A block whose parent is not on ``best`` is "orphaned", and a block
        or run that could not outrank ``best`` is "stale". Neither is held:
        the state stays field-equal and the pool unchanged. An orphan
        re-offered after its parent connects then connects."""
        assert [f.name for f in dataclasses.fields(NodeState)] == ["best", "mempool"]
        child = extend(base, miner, device, [b"one"])
        grandchild = extend(child, miner, device, [b"two"], ts_offset=11)
        tx = anchor_for(device, b"orphan")
        strays = [
            Block(
                header=BlockHeader(
                    prev_hash=Digest(rng.randbytes(32)), merkle_root=merkle_root([tx]),
                    timestamp=GENESIS_TS + 10, difficulty=0, nonce=0,
                ),
                transactions=(tx,),
            )
            for _ in range(3)
        ]
        state = NodeState(best=base)
        state.mempool.add(anchor_for(device, b"pending"), state.best)
        pooled = state.mempool.oldest()
        for block in [grandchild.tip, *strays]:
            assert state.apply_block(block) == "orphaned"
        assert state.adopt_chain(strays) == []
        assert state.best == base
        assert state.mempool.oldest() == pooled
        assert state.apply_block(child.tip) == "accepted-best"
        assert state.apply_block(grandchild.tip) == "accepted-best"
        assert state.best.tip.hash == grandchild.tip.hash
        assert state.best.height == base.height + 2

        # A losing side block, alone or in a peer's run, is stale, so a block
        # on it is an orphan, not a side block.
        best, pooled = state.best.copy(), state.mempool.oldest()
        side = extend(base, miner, device, [b"l1"], ts_offset=12)
        on_side = extend(side, miner, device, [b"l2"], ts_offset=13).tip
        assert state.apply_block(side.tip) == "stale"
        assert state.adopt_chain(side.blocks) == []
        assert state.apply_block(on_side) == "orphaned"
        assert state.best == best
        assert state.mempool.oldest() == pooled

    def test_two_block_reorg_restores_anchors(self, miner, device, base):
        """A losing branch's anchors go back to the pool; the index only ever
        reflects the winning chain (checked against a linear scan)."""
        from oracles import oracle_anchor_scan

        short = extend(base, miner, device, [b"short lived"])
        state = NodeState(best=base)
        assert state.apply_block(short.tip) == "accepted-best"

        long_1 = extend(base, miner, device, [b"long one"])
        long_2 = extend(long_1, miner, device, [b"long two"], ts_offset=11)
        state.apply_block(long_1.tip)
        assert state.best.tip.hash == preferred(short, long_1).tip.hash
        assert state.adopt_chain(long_2.blocks)[-1] == long_2.tip
        assert state.best.tip.hash == long_2.tip.hash

        pooled = {bytes(tx.log_hash) for tx in state.mempool.oldest()}
        assert bytes(sha256_digest(b"short lived")) in pooled
        scanned = oracle_anchor_scan(state.best.blocks)
        assert {bytes(k): v for k, v in state.best.anchor_index.items()} == scanned

    def test_state_chain_equals_revalidated_ancestry(self, miner, device, base, rng):
        """Oracle equivalence: after arbitrary application orders, re-offered
        until a full pass connects none, the state's chain is exactly
        validate_chain of the best tip's ancestry."""
        forks = [base]
        blocks = []
        for i in range(10):
            parent = forks[rng.randrange(len(forks))]
            grown = extend(parent, miner, device, [f"b{i}".encode()], ts_offset=10 + i)
            forks.append(grown)
            blocks.append(grown.tip)
        rng.shuffle(blocks)
        state = NodeState(best=base)
        while any([state.apply_block(block) == "accepted-best" for block in blocks]):
            pass
        ancestry = []
        cursor = state.best.tip
        index = {b.hash: b for b in base.blocks + blocks}
        while True:
            ancestry.append(cursor)
            if cursor.header.prev_hash == Digest(bytes(32)):
                break
            cursor = index[cursor.header.prev_hash]
        ancestry.reverse()
        revalidated = validate_chain(ancestry)
        assert revalidated.blocks == state.best.blocks
        assert revalidated.registered_nodes == state.best.registered_nodes
        assert revalidated.anchor_index == state.best.anchor_index
        assert revalidated.tx_ids == state.best.tx_ids
        assert revalidated.heights == state.best.heights

    def test_no_accepted_tx_lost(self, miner, device, base):
        """Every tx accepted into the pool ends up on the best chain or back
        in the pool after a reorg between branches carrying overlapping txs."""
        state = NodeState(best=base)
        txs = [anchor_for(device, f"tx {i}".encode()) for i in range(12)]
        accepted = []
        for tx in txs:
            assert state.mempool.add(tx, state.best) == "accepted"
            accepted.append(tx.id)

        def mined(parent_chain, subset, ts):
            pool = Mempool()
            for tx in subset:
                pool.add(tx, parent_chain)
            return mine_block(
                pool, parent_chain.tip.header, 0, miner, ts, parent_chain.registered_nodes
            )

        block_a = mined(base, txs[:3], GENESIS_TS + 10)  # short branch: txs 0..2
        block_b1 = mined(base, txs[2:5], GENESIS_TS + 10)  # long branch: txs 2..4 ...
        chain_b1 = validate_chain(base.blocks + [block_b1])
        block_b2 = mined(chain_b1, txs[5:7], GENESIS_TS + 11)  # ... then 5..6

        assert state.apply_block(block_a) == "accepted-best"
        state.apply_block(block_b1)
        assert state.adopt_chain([block_b1, block_b2])[-1] == block_b2  # reorg to branch B

        on_chain = {tx.id for b in state.best.blocks for tx in b.transactions}
        pooled = {tx.id for tx in state.mempool.oldest()}
        for txid in accepted:
            assert txid in on_chain or txid in pooled
        # The displaced branch's exclusive txs are back in the pool,
        # and everything branch B mined has left it.
        assert txs[0].id in pooled and txs[1].id in pooled
        for tx in txs[2:7]:
            assert tx.id not in pooled


class TestReorgReadmission:
    """A reorg puts back the txs of the blocks it drops by the pool's
    admission rule on the new best chain."""

    def test_registration_and_its_anchor_are_put_back_and_mined(self, miner, device, base):
        fresh = keypair_for("fresh-device")
        registration = build_registration_tx(fresh.public_key, NodeRole.DEVICE, miner)
        anchor = anchor_for(fresh, b"fresh evidence")
        losing = mined(base, miner, [registration, anchor])
        winning = anchored(base, miner, device, b"win", 2)
        logic = NodeLogic("m", miner, NodeRole.CSP_MINER, base)
        assert logic.state.apply_block(losing.tip) == "accepted-best"
        assert logic.state.adopt_chain(winning.blocks) == winning.blocks[base.height :]
        assert logic.state.mempool.oldest() == [registration, anchor]
        assert_pool_admissible(logic.state.mempool, logic.state.best)
        block = logic.maybe_mine(winning.tip.header.timestamp + 1)
        assert block is not None and block.transactions == (registration, anchor)

    def test_anchor_of_a_key_registered_nowhere_is_not_put_back(self, miner, device, base):
        """The losing block registers a second miner, which registers a key
        that anchors; the winning branch registers that second miner as a
        device. None of the three dropped txs is valid there."""
        sponsor, fresh = keypair_for("second-miner"), keypair_for("fresh-device")
        dropped = [
            build_registration_tx(sponsor.public_key, NodeRole.CSP_MINER, miner),
            build_registration_tx(fresh.public_key, NodeRole.DEVICE, sponsor),
            anchor_for(fresh, b"fresh evidence"),
        ]
        losing = mined(base, miner, dropped)
        demoted = build_registration_tx(sponsor.public_key, NodeRole.DEVICE, miner)
        winning = anchored(mined(base, miner, [demoted]), miner, device, b"win", 1)
        state = NodeState(best=base)
        assert state.apply_block(losing.tip) == "accepted-best"
        assert state.adopt_chain(winning.blocks) == winning.blocks[base.height :]
        assert len(state.mempool) == 0
        assert fresh.public_key not in state.best.registered_nodes
        assert_pool_admissible(state.mempool, state.best)

    def test_pooled_anchor_taken_out_of_context_by_a_reorg_is_evicted(
        self, miner, device, base, monkeypatch
    ):
        """A node pools an anchor of key F while F is registered as a device;
        the branch it then adopts registers F as a stakeholder. The anchor
        leaves the pool, as a fresh ``add`` would refuse it, and re-admitting
        the pool checks no signature again."""
        fresh = keypair_for("fresh-device")
        losing = mined(base, miner, [build_registration_tx(fresh.public_key, NodeRole.DEVICE, miner)])
        state = NodeState(best=base)
        assert state.apply_block(losing.tip) == "accepted-best"
        anchor = anchor_for(fresh, b"fresh evidence")
        assert state.mempool.add(anchor, state.best) == "accepted"
        as_stakeholder = build_registration_tx(fresh.public_key, NodeRole.STAKEHOLDER, miner)
        winning = anchored(mined(base, miner, [as_stakeholder]), miner, device, b"win", 1)
        checks = []
        original = ledger.verify_signature
        monkeypatch.setattr(ledger, "verify_signature", lambda *a: checks.append(a) or original(*a))
        assert state.adopt_chain(winning.blocks) == winning.blocks[base.height :]
        assert len(checks) == 4  # the winning branch's 4 txs; none of the pool's
        assert state.mempool.oldest() == []
        assert Mempool().add(anchor, state.best) == "invalid:role-not-permitted"
        assert_pool_admissible(state.mempool, state.best)

    def test_pooled_registration_made_stale_by_a_block_is_evicted(self, miner, device, base):
        """The pool holds a registration of F as a device and an anchor of F
        it admits; a block on the best tip registers F as a stakeholder
        through another tx. Both leave the pool; the unrelated anchor stays."""
        fresh = keypair_for("fresh-device")
        state = NodeState(best=base)
        pooled = [
            build_registration_tx(fresh.public_key, NodeRole.DEVICE, miner),
            anchor_for(fresh, b"fresh evidence"),
            anchor_for(device, b"unrelated"),
        ]
        for tx in pooled:
            assert state.mempool.add(tx, state.best) == "accepted"
        as_stakeholder = build_registration_tx(fresh.public_key, NodeRole.STAKEHOLDER, miner)
        assert state.apply_block(mined(base, miner, [as_stakeholder]).tip) == "accepted-best"
        assert state.mempool.oldest() == pooled[2:]
        assert_pool_admissible(state.mempool, state.best)

    def test_pooled_anchor_keeps_the_registration_a_reorg_drops(self, miner, device, base):
        """A dropped block registers F, and the pool holds an anchor of F; the
        winning branch registers another key. The dropped registration is
        admitted again before the pool, so F's anchor keeps its place and
        both are mined."""
        fresh, other = keypair_for("fresh-device"), keypair_for("other-device")
        registration = build_registration_tx(fresh.public_key, NodeRole.DEVICE, miner)
        losing = mined(base, miner, [registration])
        logic = NodeLogic("m", miner, NodeRole.CSP_MINER, base)
        assert logic.state.apply_block(losing.tip) == "accepted-best"
        anchor = anchor_for(fresh, b"fresh evidence")
        assert logic.state.mempool.add(anchor, logic.state.best) == "accepted"
        winning = anchored(
            mined(base, miner, [build_registration_tx(other.public_key, NodeRole.DEVICE, miner)]),
            miner,
            device,
            b"win",
            1,
        )
        assert logic.state.adopt_chain(winning.blocks) == winning.blocks[base.height :]
        assert logic.state.mempool.oldest() == [registration, anchor]
        assert_pool_admissible(logic.state.mempool, logic.state.best)
        block = logic.maybe_mine(winning.tip.header.timestamp + 1)
        assert block is not None and block.transactions == (registration, anchor)


class TestAdoptChain:
    def test_invalid_block_keeps_valid_prefix(self, miner, device, base):
        """A peer chain with a bad block mid-way: the blocks before it are
        applied, and neither the bad block nor any block after it is known."""
        good = extend(extend(base, miner, device, [b"p1"]), miner, device, [b"p2"], ts_offset=11)
        valid_next = extend(good, miner, device, [b"p3"], ts_offset=12).tip
        bad = type(valid_next)(
            header=BlockHeader(
                prev_hash=good.tip.hash,
                merkle_root=Digest(bytes(32)),
                timestamp=valid_next.header.timestamp,
                difficulty=0,
                nonce=0,
            ),
            transactions=valid_next.transactions,
        )
        pool = Mempool()
        pool.add(anchor_for(device, b"p4", ts=GENESIS_TS + 13), good)
        after = mine_block(pool, bad.header, 0, miner, GENESIS_TS + 13, good.registered_nodes)
        state = NodeState(best=base)
        assert state.adopt_chain(good.blocks + [bad, after]) == good.blocks[base.height :]
        assert state.best.tip.hash == good.tip.hash
        assert bad.hash not in state.best.heights
        assert after.hash not in state.best.heights

    def test_different_genesis_refused_state_unchanged(self, miner, device, base):
        other, _ = build_chain(keypair_for("other-miner"), device, [b"x", b"y"])
        state = NodeState(best=base)
        assert state.adopt_chain(other.blocks) == []
        assert state.adopt_chain([]) == []
        assert state.best == base
        assert len(state.mempool) == 0

    def test_run_past_genesis_connects_only_its_blocks(self, miner, device, base):
        """A delta run, starting on a block the node holds, connects."""
        one = extend(base, miner, device, [b"d1"])
        two = extend(one, miner, device, [b"d2"], ts_offset=11)
        state = NodeState(best=base)
        assert state.adopt_chain(two.blocks[base.height :]) == two.blocks[base.height :]
        assert state.best.tip.hash == two.tip.hash

    def test_run_on_unknown_parent_refused_state_unchanged(self, miner, device, base):
        one = extend(base, miner, device, [b"d1"])
        two = extend(one, miner, device, [b"d2"], ts_offset=11)
        state = NodeState(best=base)
        assert state.adopt_chain(two.blocks[one.height :]) == []
        assert state.best == base


def mined(chain, miner, txs):
    """``chain`` plus a block of ``txs``, one second after its tip."""
    pool = Mempool()
    for tx in txs:
        pool.add(tx, chain)
    ts = chain.tip.header.timestamp + 1
    block = mine_block(pool, chain.tip.header, 0, miner, ts, chain.registered_nodes)
    chain = chain.copy()
    chain.connect(block)
    return chain


def anchored(chain, miner, device, label, count):
    """``chain`` plus ``count`` blocks of three anchors each."""
    for i in range(count):
        txs = [anchor_for(device, b"%s %d.%d" % (label, i, k)) for k in range(3)]
        chain = mined(chain, miner, txs)
    return chain


def relinked(blocks):
    """``blocks`` with each header after the first pointing at the one
    before it."""
    out = blocks[:1]
    for block in blocks[1:]:
        header = dataclasses.replace(block.header, prev_hash=out[-1].hash)
        out.append(Block(header, block.transactions))
    return out


class TestConnectRunMatchesSerial:
    """A run is connected rules first, then one signature batch. With one
    fault in the run, a node ends as when it connected each block in turn
    (``oracle_connect_run``): the same status, reason, failing height, best
    chain and mempool.

    The node holds ``own`` (height 8); the run is ``peer`` (height 10), both
    on the same registration block. A fault at height 10 leaves a prefix
    that wins, one at height 9 a tie broken by hash, and one lower a prefix
    that cannot win: each case puts its fault at height 10, then at three
    random heights.
    """

    miner, device, stakeholder, stranger = map(
        keypair_for, ("miner-0", "device-0", "stakeholder-0", "stranger")
    )

    @pytest.fixture(scope="class")
    def chains(self):
        registrations = [
            build_registration_tx(key.public_key, role, self.miner)
            for key, role in ((self.device, NodeRole.DEVICE), (self.stakeholder, NodeRole.STAKEHOLDER))
        ]
        genesis = validate_chain([make_genesis([self.miner], GENESIS_TS)])
        base = mined(genesis, self.miner, registrations)
        own = anchored(base, self.miner, self.device, b"own", 6)
        peer = anchored(base, self.miner, self.device, b"peer", 8)
        return own, peer

    def bad_tx(self, tag, txs, index):
        if tag == "bad-role-tag":
            good = build_registration_tx(self.stranger.public_key, NodeRole.DEVICE, self.miner)
            raw = bytearray(good.raw)
            raw[34] = 0x09
            return decode_tx(bytes(raw))
        if tag == "bad-version":
            return decode_tx(b"\x02" + txs[index].raw[1:])
        if tag == "bad-signature":
            signature = bytearray(txs[index].signature)
            signature[0] ^= 1
            return with_signature(txs[index], signature)
        if tag == "unregistered-submitter":
            return anchor_for(self.stranger, b"stranger")
        if tag == "role-not-permitted":
            return anchor_for(self.stakeholder, b"stakeholder")
        if tag == "already-registered":
            return build_registration_tx(self.device.public_key, NodeRole.DEVICE, self.miner)
        if tag == "unregistered-sponsor":
            return build_registration_tx(self.stranger.public_key, NodeRole.DEVICE, self.device)
        assert tag == "duplicate-tx"
        return txs[(index + 1) % len(txs)]

    HEADER_FAULTS = {
        "empty-block": None,
        "bad-version": {"version": 2},
        "bad-linkage": {"prev_hash": bytes(32)},
        "merkle-mismatch": {"merkle_root": bytes(32)},
        "bad-pow": {"difficulty": 255},
        "bad-timestamp": {"timestamp": GENESIS_TS},
    }

    def with_fault(self, blocks, height, where, tag, index=0):
        """``blocks`` with one fault, ``tag``, at ``height``: in its header
        when ``where`` is "header", else in its tx at ``index``."""
        block = blocks[height - 1]
        if where == "header" and tag == "empty-block":
            block = Block(block.header, ())
        elif where == "header":
            header = dataclasses.replace(block.header, **self.HEADER_FAULTS[tag])
            block = Block(header, block.transactions)
        else:
            txs = list(block.transactions)
            txs[index] = self.bad_tx(tag, txs, index)
            header = dataclasses.replace(block.header, merkle_root=merkle_root(txs))
            block = Block(header, tuple(txs))
        return blocks[: height - 1] + relinked([block] + blocks[height:])

    def both(self, own, run, pooled, monkeypatch):
        """Deliver ``run`` to two nodes on ``own`` with ``pooled`` in their
        mempools; the node's result beside the reference's."""
        failures = []
        connect_run = Chain.connect_run

        def spy(chain, *args, **kwargs):
            reason = connect_run(chain, *args, **kwargs)
            if reason is not None:
                failures.append((chain.height + 1, reason))
            return reason

        node, serial = NodeState(best=own), NodeState(best=own)
        for tx in pooled:
            for state in (node, serial):
                state.mempool.add(tx, state.best)
        with monkeypatch.context() as patch:
            patch.setattr(Chain, "connect_run", spy)
            status, added = node._connect_run(run)
        result = status, added, failures[0] if failures else None
        return node, result, serial, oracle_connect_run(serial, run)

    @pytest.mark.parametrize(
        "where,tag",
        [("header", tag) for tag in HEADER_FAULTS]
        + [
            ("tx", tag)
            for tag in (
                "bad-version",
                "bad-role-tag",
                "bad-signature",
                "unregistered-submitter",
                "role-not-permitted",
                "already-registered",
                "unregistered-sponsor",
                "duplicate-tx",
            )
        ],
        ids=lambda value: value,
    )
    def test_one_fault_ends_as_serially(self, chains, monkeypatch, where, tag):
        own, peer = chains
        outcomes = set()
        rng = random.Random(f"{where} {tag}")
        for height in [peer.height] + [rng.randrange(3, peer.height + 1) for _ in range(3)]:
            run = self.with_fault(peer.blocks, height, where, tag, rng.randrange(3))
            pooled = rng.sample([tx for block in run[2:] for tx in block.transactions], 5)
            pooled.append(anchor_for(self.device, b"pending"))
            node, result, serial, expected = self.both(own, run, pooled, monkeypatch)
            assert result == expected
            assert node.best == serial.best
            assert node.mempool.oldest() == serial.mempool.oldest()
            outcomes.add(result[0])
        assert len(outcomes) > 1

    def test_bad_signature_before_a_rule_fault_in_one_block_fails_as_serially(
        self, chains, monkeypatch
    ):
        """The block that breaks a rule is checked again with its txs, so a
        bad signature before the rule's tx names the block's failure, as
        serially."""
        own, peer = chains
        run = self.with_fault(peer.blocks, 10, "tx", "bad-signature", 0)
        run = self.with_fault(run, 10, "tx", "unregistered-submitter", 2)
        _, result, _, expected = self.both(own, run, [], monkeypatch)
        assert result == expected
        assert result[0::2] == ("accepted-best", (10, "bad-signature"))

    def test_bad_signature_before_a_rule_fault_in_a_run_that_cannot_win(self, chains, monkeypatch):
        """The one case that ends otherwise than serially. A run whose valid
        prefix cannot win has a bad signature at height 4 and a wrong Merkle
        root at height 7. Serially the signature fails first; rules first,
        the Merkle root does, and no signature is checked. Both refuse the
        run and leave ``best`` as it was."""
        own, peer = chains
        run = self.with_fault(peer.blocks, 4, "tx", "bad-signature", 1)
        run = self.with_fault(run, 7, "header", "merkle-mismatch")
        checks, verify = [], ledger.verify_signature
        monkeypatch.setattr(
            ledger, "verify_signature", lambda *args: checks.append(args[0]) or verify(*args)
        )
        node, result, serial, expected = self.both(own, run, [], monkeypatch)
        assert result == ("rejected:merkle-mismatch", [], (7, "merkle-mismatch"))
        assert expected == ("rejected:bad-signature", [], (4, "bad-signature"))
        assert len(checks) == 4 + 1  # the reference's, up to the bad signature
        assert node.best == serial.best == own
