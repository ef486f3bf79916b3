"""Proof-of-work mining, mempool management and longest-chain fork choice.

Mining is restricted to keys registered with the csp-miner role. Fork choice
is a strict total order: longer chain wins, ties broken by the byte-smaller
tip hash, so every node picks the same winner without coordination.

State mutation is expected to be serialized by one logical owner; nothing in
this module is internally locked.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field

from .crypto import Digest, KeyPair
from .ledger import (
    Block,
    BlockHeader,
    Chain,
    ChainValidationError,
    NodeRole,
    Transaction,
    VerifiedTxs,
    block_hash,
    leading_zero_bits,
    merkle_root,
    registry_walk,
    tx_id,
    verify_tx,
)

DEFAULT_MEMPOOL_CAP = 10_000
DEFAULT_BLOCK_TX_CAP = 100
DEFAULT_ORPHAN_CAP = 100

MAX_NONCE = 2**64


class MiningError(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class Mempool:
    """Pending valid transactions, deduplicated by tx id, oldest first.

    ``verified`` records the ids of the txs whose checks passed. The pool's
    owner, one node or one ``bloff mine`` run, also passes it to block
    validation, so a pooled tx is not checked again in its block. It holds
    twice the pool's capacity: every pooled tx, and as many again from
    blocks that arrive before their txs do.
    """

    def __init__(self, capacity: int = DEFAULT_MEMPOOL_CAP):
        self.capacity = capacity
        self._txs: dict[Digest, Transaction] = {}
        self.verified = VerifiedTxs(2 * capacity)

    def __len__(self) -> int:
        return len(self._txs)

    def __contains__(self, txid: Digest) -> bool:
        return txid in self._txs

    def add(self, tx: Transaction, chain_tx_ids: AbstractSet[Digest] = frozenset()) -> str:
        """Admit ``tx`` if valid, new and within capacity; a tx whose id is in
        ``chain_tx_ids``, the chain this pool feeds, is "invalid:duplicate-tx".

        Returns "accepted", "duplicate", "full" or "invalid:<reason>".
        """
        txid = tx_id(tx)
        if txid in self._txs:
            return "duplicate"
        if txid in chain_tx_ids:
            return "invalid:duplicate-tx"
        reason = verify_tx(tx, self.verified, txid)
        if reason is not None:
            return f"invalid:{reason}"
        if len(self._txs) >= self.capacity:
            return "full"
        self._txs[txid] = tx
        return "accepted"

    def readd(self, tx: Transaction) -> None:
        """Re-inject a transaction orphaned by a reorg.

        Ignores the capacity cap: an anchored digest must never be silently
        lost just because the pool happens to be full at reorg time.
        """
        txid = tx_id(tx)
        if txid not in self._txs and verify_tx(tx, self.verified, txid) is None:
            self._txs[txid] = tx

    def evict(self, txids) -> None:
        for txid in txids:
            self._txs.pop(txid, None)

    def oldest(self) -> list[Transaction]:
        return list(self._txs.values())


def mine_block(
    pool: Mempool,
    parent_header: BlockHeader,
    difficulty: int,
    miner: KeyPair,
    timestamp: int,
    registered_nodes: dict[bytes, NodeRole],
    block_tx_cap: int = DEFAULT_BLOCK_TX_CAP,
) -> Block:
    """Seal a block over the oldest minable transactions, up to the cap.

    The nonce search starts at 0 and is fully deterministic for fixed inputs.
    Transactions that are not yet valid in context (an anchor whose submitter
    is unregistered, a replayed registration) stay in the pool untouched.
    """
    if registered_nodes.get(miner.public_key) != NodeRole.CSP_MINER:
        raise MiningError("miner-not-registered")
    selected: list[Transaction] = []
    for tx, reason in registry_walk(pool.oldest(), dict(registered_nodes)):
        if reason is not None:
            continue
        selected.append(tx)
        if len(selected) >= block_tx_cap:
            break
    if not selected:
        raise MiningError("no-work")
    root = merkle_root(selected)
    # A timestamp below the parent's would make the block invalid; clamp.
    timestamp = max(timestamp, parent_header.timestamp)
    prev = block_hash(parent_header)
    for nonce in range(MAX_NONCE):
        header = BlockHeader(
            prev_hash=prev,
            merkle_root=root,
            timestamp=timestamp,
            difficulty=difficulty,
            nonce=nonce,
        )
        if leading_zero_bits(block_hash(header)) >= difficulty:
            return Block(header=header, transactions=tuple(selected))
    raise MiningError("nonce-exhausted")  # pragma: no cover - 2**64 attempts


def fork_rank(height: int, tip: Digest) -> tuple[int, bytes]:
    """Fork choice as a sort key: the chain of the smaller rank wins, which
    is the longer one or, at equal length, the one of the byte-smaller tip."""
    return (-height, bytes(tip))


@dataclass
class NodeState:
    """Fork-choice state plus the best chain and the mempool of one node.

    ``known_blocks`` holds every accepted block; ``best`` is the node's own
    copy of the chain it was given, moved in place to the chain of the
    smallest ``fork_rank`` over everything known. A gossiped block and the
    blocks a peer's chain adds take one path, ``_connect_run``: the new
    blocks are checked once, with ``best`` moved onto their parent.
    """

    best: Chain
    mempool: Mempool = field(default_factory=Mempool)
    known_blocks: dict[Digest, Block] = field(default_factory=dict)
    orphans: dict[Digest, list[Block]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.best = self.best.copy()
        self.known_blocks.update((b.hash, b) for b in self.best.blocks)
        # ``best`` is a validated chain, so its txs have passed their checks.
        for block in self.best.blocks:
            for txid in block.tx_ids:
                self.mempool.verified.add(txid)

    @property
    def best_tip(self) -> Digest:
        return self.best.tip.hash

    def fork_from(self, tip: Digest) -> tuple[int, list[Block]]:
        """Walk from known block ``tip`` back to the best chain: the height
        where the walk meets it, and the known blocks above that, oldest first."""
        branch = []
        while tip not in self.best.heights:
            branch.append(self.known_blocks[tip])
            tip = branch[-1].header.prev_hash
        branch.reverse()
        return self.best.heights[tip], branch

    def _move(self, fork: int, blocks: list[Block]) -> list[Block]:
        """Disconnect ``best`` down to height ``fork`` and advance it by
        ``blocks``, known to be valid there; returns the blocks removed,
        oldest first."""
        removed = [self.best.disconnect() for _ in range(self.best.height - fork)]
        for block in blocks:
            self.best.advance(block)
        return removed[::-1]

    def apply_block(self, block: Block) -> str:
        """Store a block and update fork choice.

        Returns "accepted-best", "accepted-side", "duplicate", "orphaned" or
        "rejected:<reason>". Orphans (unknown parent) are held, bounded, and
        retried once their parent arrives. Invalid blocks leave the state
        unchanged.
        """
        if block.hash in self.known_blocks:
            return "duplicate"
        if block.header.prev_hash not in self.known_blocks:
            self.orphans.setdefault(block.header.prev_hash, []).append(block)
            for _ in range(sum(map(len, self.orphans.values())) - DEFAULT_ORPHAN_CAP):
                oldest_key = next(iter(self.orphans))
                self.orphans[oldest_key].pop(0)
                if not self.orphans[oldest_key]:
                    del self.orphans[oldest_key]
            return "orphaned"
        return self._connect_run([block])

    def _connect_run(self, blocks: list[Block]) -> str:
        """Move ``best`` onto the parent of ``blocks``, a linked run on a known
        block, and connect the run up to its first invalid block. Keep the
        result if fork choice prefers it, re-injecting the txs of the blocks it
        dropped and evicting those of the blocks it added; otherwise move back.
        (Known blocks alone never win: ``best`` already ranks first of them.)"""
        best = self.best
        old_rank = fork_rank(best.height, best.tip.hash)
        fork, branch = self.fork_from(blocks[0].header.prev_hash)
        dropped = self._move(fork, branch)
        added = []
        for block in blocks:
            try:
                best.connect(block, self.mempool.verified)
            except ChainValidationError as exc:
                reason = exc.reason
                break
            added.append(block)
        self.known_blocks.update((b.hash, b) for b in added)

        if fork_rank(best.height, best.tip.hash) < old_rank:
            for block in dropped:
                for tx, txid in zip(block.transactions, block.tx_ids):
                    if txid not in best.tx_ids:
                        self.mempool.readd(tx)
            self.mempool.evict(txid for block in best.blocks[fork:] for txid in block.tx_ids)
            status = "accepted-best"
        else:
            self._move(fork, dropped)
            if not added:
                return f"rejected:{reason}"
            status = "accepted-side"

        # Grown chain may unblock held orphans.
        for block in added:
            for orphan in self.orphans.pop(block.hash, []):
                if self.apply_block(orphan) == "accepted-best":
                    status = "accepted-best"
        return status

    def adopt_chain(self, blocks: list[Block]) -> bool:
        """Connect the blocks of a peer's linked run that this node lacks, up to
        the first invalid one. The run may start anywhere, but the parent of
        its first new block must be known; a run from another genesis never
        connects. Returns True when the best tip changed."""
        new = [b for b in blocks if b.hash not in self.known_blocks]
        if not new or new[0].header.prev_hash not in self.known_blocks:
            return False
        return self._connect_run(new) == "accepted-best"
