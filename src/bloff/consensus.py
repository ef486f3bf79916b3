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
    validate_chain,
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


def choose_chain(candidate_a: Chain, candidate_b: Chain) -> Chain:
    """Deterministic fork choice between two validated chains.

    Longer wins; equal length falls back to the byte-lexicographically
    smaller tip hash. Chains must share a genesis block.
    """
    if candidate_a.genesis_hash != candidate_b.genesis_hash:
        raise ValueError("incompatible-genesis")
    if candidate_a.height != candidate_b.height:
        return candidate_a if candidate_a.height > candidate_b.height else candidate_b
    if bytes(candidate_a.tip.hash) <= bytes(candidate_b.tip.hash):
        return candidate_a
    return candidate_b


def fork_height(a: Chain, b: Chain) -> int:
    """How many leading blocks ``a`` and ``b`` share: the height of their fork
    point. Both must share a genesis block."""
    height = min(a.height, b.height)
    while a.blocks[height - 1].hash != b.blocks[height - 1].hash:
        height -= 1
    return height


@dataclass
class NodeState:
    """Fork-choice state plus the best chain and the mempool of one node.

    ``known_blocks`` holds every accepted block; ``best`` is the validated
    chain selected by ``choose_chain`` over everything known. A gossiped
    block and the blocks a peer's chain adds take one path, ``_connect_run``:
    the new blocks are checked once, onto their parent's validated chain.
    """

    best: Chain
    mempool: Mempool = field(default_factory=Mempool)
    known_blocks: dict[Digest, Block] = field(default_factory=dict)
    orphans: dict[Digest, list[Block]] = field(default_factory=dict)
    orphan_cap: int = DEFAULT_ORPHAN_CAP

    def __post_init__(self) -> None:
        self.known_blocks.update((b.hash, b) for b in self.best.blocks)
        # ``best`` is a validated chain, so its txs have passed their checks.
        for block in self.best.blocks:
            for txid in block.tx_ids:
                self.mempool.verified.add(txid)
        # Validated chains by tip hash, for the best tip and the run accepted
        # last; a run on any other parent replays that parent's ancestry.
        self._built: dict[Digest, Chain] = {self.best_tip: self.best}

    @property
    def best_tip(self) -> Digest:
        return self.best.tip.hash

    def _ancestry(self, tip: Block) -> list[Block] | None:
        """Walk prev_hash links back to genesis; None if any link is missing."""
        blocks = [tip]
        genesis_hash = self.best.blocks[0].hash
        while blocks[-1].hash != genesis_hash:
            parent = self.known_blocks.get(blocks[-1].header.prev_hash)
            if parent is None:
                return None
            blocks.append(parent)
        return list(reversed(blocks))

    def _switch_to(self, new_best: Chain) -> None:
        """Adopt ``new_best``: re-inject the txs of the blocks it drops that it
        does not hold, and evict the txs of the blocks it adds."""
        fork = fork_height(self.best, new_best)
        for block in self.best.blocks[fork:]:
            for tx, txid in zip(block.transactions, block.tx_ids):
                if txid not in new_best.tx_ids:
                    self.mempool.readd(tx)
        self.mempool.evict(txid for block in new_best.blocks[fork:] for txid in block.tx_ids)
        self.best = new_best

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
            for _ in range(sum(map(len, self.orphans.values())) - self.orphan_cap):
                oldest_key = next(iter(self.orphans))
                self.orphans[oldest_key].pop(0)
                if not self.orphans[oldest_key]:
                    del self.orphans[oldest_key]
            return "orphaned"
        return self._connect_run([block])

    def _connect_run(self, blocks: list[Block]) -> str:
        """Check ``blocks``, a linked run on a known block, onto that block's
        chain with one copy; keep it up to its first invalid block (none: state
        unchanged) and make it best if fork choice prefers it."""
        prev_hash = blocks[0].header.prev_hash
        verified = self.mempool.verified
        parent_chain = self._built.get(prev_hash)
        if parent_chain is None:
            ancestry = self._ancestry(self.known_blocks[prev_hash])
            if ancestry is None:
                return "rejected:missing-ancestry"
            parent_chain = validate_chain(ancestry, verified)  # known blocks, all valid
        try:
            candidate = parent_chain.extend(blocks[0], verified)
        except ChainValidationError as exc:
            return f"rejected:{exc.reason}"
        for block in blocks[1:]:
            try:
                candidate._connect(block, verified)  # in place on the copy extend made
            except ChainValidationError:
                break
        added = candidate.blocks[parent_chain.height :]
        self.known_blocks.update((b.hash, b) for b in added)

        status = "accepted-side"
        if choose_chain(candidate, self.best) is candidate:
            self._switch_to(candidate)
            status = "accepted-best"
        self._built = {self.best_tip: self.best, candidate.tip.hash: candidate}

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
