"""Proof-of-work mining, mempool management and longest-chain fork choice.

Mining is restricted to keys registered with the csp-miner role. Fork choice
is a strict total order: longer chain wins, ties broken by the byte-smaller
tip hash, so every node picks the same winner without coordination. A node
keeps its best chain and mempool only: a block whose parent is off the best
chain is not held, and a run that could not win is not checked.

State mutation is expected to be serialized by one logical owner; nothing in
this module is internally locked.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, field

from .crypto import Digest, KeyPair
from .ledger import (
    Block,
    BlockHeader,
    Chain,
    NodeRole,
    RegistrationTransaction,
    Transaction,
    VerifiedTxs,
    block_hash,
    leading_zero_bits,
    merkle_root,
    tx_context_reason,
    verify_tx,
)

DEFAULT_MEMPOOL_CAP = 10_000
DEFAULT_BLOCK_TX_CAP = 100

MAX_NONCE = 2**64


class MiningError(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class Mempool:
    """Pending valid transactions, deduplicated by tx id, oldest first.

    ``add`` is the one admission rule, for a tx from a peer, a client or a
    mempool file: the registry rules, on the chain the pool feeds overlaid
    with the pooled registrations, come before the signature check.

    A gossiped block names its txs by id only; a node rebuilds it from its
    pool with ``get``, and asks its sender for the full block when an id is
    not pooled.

    ``verified`` records the ids of the txs whose checks passed. The pool's
    owner, one node or one ``bloff mine`` run, also passes it to block
    validation, so a pooled tx is not checked again in its block. It holds
    twice the pool's capacity: every pooled tx, and as many again from
    blocks that arrive before their txs do.
    """

    def __init__(self, capacity: int = DEFAULT_MEMPOOL_CAP):
        self.capacity = capacity
        self._txs: dict[Digest, Transaction] = {}
        self._registered: dict[bytes, NodeRole] = {}  # the pooled registrations
        self.verified = VerifiedTxs(2 * capacity)

    def __len__(self) -> int:
        return len(self._txs)

    def __contains__(self, txid: Digest) -> bool:
        return txid in self._txs

    def get(self, txid: Digest) -> Transaction | None:
        """The pooled tx of id ``txid``, or None."""
        return self._txs.get(txid)

    def add(self, tx: Transaction, chain: Chain) -> str:
        """Admit ``tx`` if new, valid on ``chain`` and within capacity; a tx
        on ``chain`` is "invalid:duplicate-tx", and one the registry rules
        refuse has no signature checked.

        Returns "accepted", "duplicate", "full" or "invalid:<reason>".
        """
        return self._admit(tx, chain, capped=True)

    def add_signed(self, tx: Transaction, chain: Chain) -> str | None:
        """``add`` a tx its client has just signed, so no verify can refuse
        it and none is made; the reason a client reports for a refusal, else
        None."""
        self.verified.add(tx.id)
        status = self.add(tx, chain)
        return None if status == "accepted" else status.removeprefix("invalid:")

    def readd(self, tx: Transaction, chain: Chain) -> None:
        """Re-inject a transaction orphaned by a reorg onto ``chain``, by the
        rules of ``add`` but the capacity cap: an anchored digest must never
        be silently lost just because the pool happens to be full at reorg
        time.
        """
        self._admit(tx, chain, capped=False)

    def _admit(self, tx: Transaction, chain: Chain, capped: bool) -> str:
        if tx.id in self._txs:
            return "duplicate"
        if tx.id in chain.tx_ids:
            return "invalid:duplicate-tx"
        # The chain's registry wins over a pooled registration of the same key.
        registry = ChainMap(chain.registered_nodes, self._registered)
        reason = tx_context_reason(tx, registry) or verify_tx(tx, self.verified)
        if reason is not None:
            return f"invalid:{reason}"
        if capped and len(self._txs) >= self.capacity:
            return "full"
        self._txs[tx.id] = tx
        if isinstance(tx, RegistrationTransaction):
            self._registered[tx.new_node_pubkey] = tx.role
        return "accepted"

    def evict(self, txids) -> None:
        for txid in txids:
            tx = self._txs.pop(txid, None)
            if isinstance(tx, RegistrationTransaction):
                self._registered.pop(tx.new_node_pubkey, None)

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
    """Seal a block over the oldest pooled transactions, up to the cap.

    The nonce search starts at 0 and is fully deterministic for fixed inputs.
    Each prefix of ``pool.oldest()`` is valid on the pool's chain, as
    ``Mempool.add`` admits in order and a reorg re-admits the pool.
    """
    if registered_nodes.get(miner.public_key) != NodeRole.CSP_MINER:
        raise MiningError("miner-not-registered")
    selected = pool.oldest()[:block_tx_cap]
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
    """The best chain and the mempool of one node, and nothing else.

    ``best`` is the node's own copy of the chain it was given, moved in place.
    A gossiped block and a peer's run take one path, ``_connect_run``: a run
    that cannot win is dropped unchecked, any other is checked once by
    ``Chain.connect_run`` with ``best`` moved onto its parent: every rule
    first, then no signature if the valid prefix cannot win, else its new
    ones in one batch spread over every CPU.
    """

    best: Chain
    mempool: Mempool = field(default_factory=Mempool)

    def __post_init__(self) -> None:
        self.best = self.best.copy()
        # ``best`` is a validated chain, so its txs have passed their checks.
        for block in self.best.blocks:
            for txid in block.tx_ids:
                self.mempool.verified.add(txid)

    def _move(self, fork: int, blocks: list[Block]) -> list[Block]:
        """Disconnect ``best`` down to height ``fork`` and advance it by
        ``blocks``, known to be valid there; returns the blocks removed,
        oldest first."""
        removed = [self.best.disconnect() for _ in range(self.best.height - fork)]
        for block in blocks:
            self.best.advance(block)
        return removed[::-1]

    def apply_block(self, block: Block) -> str:
        """Update fork choice with one block.

        Returns "accepted-best", "duplicate" (already on ``best``), "orphaned"
        (its parent is not on ``best``), "stale" (it would not outrank
        ``best`` even if valid, so it is not checked) or "rejected:<reason>".
        Any status but "accepted-best" leaves the state unchanged.
        """
        return self._connect_run([block])[0]

    def adopt_chain(self, blocks: list[Block]) -> list[Block]:
        """Connect the blocks of a peer's linked run that are not on ``best``,
        up to the first invalid one, by the rules of ``apply_block``. The run
        may start anywhere, but the parent of its first new block must be on
        ``best``; a run from another genesis never connects. Returns the
        blocks ``best`` gained, oldest first; none when its tip did not
        change."""
        return self._connect_run(blocks)[1]

    def _connect_run(self, blocks: list[Block]) -> tuple[str, list[Block]]:
        """Unless the run's new blocks are none, on a parent off ``best`` or
        unable to win, move ``best`` onto their parent and ``connect_run``
        them, with fork choice as its ``can_win``. Keep the result if fork
        choice prefers it, re-injecting the txs of the blocks it dropped and
        evicting those of the blocks it added; when one of these holds a
        registration, the pool is admitted again after the dropped txs (its
        ids still in ``verified`` cost no check). Otherwise move back.
        Returns the status and the blocks ``best`` gained."""
        best = self.best
        new = [b for b in blocks if b.hash not in best.heights]
        if not new:
            return "duplicate", []
        fork = best.heights.get(new[0].header.prev_hash)
        if fork is None:
            return "orphaned", []
        old_rank = fork_rank(best.height, best.tip.hash)
        if fork_rank(fork + len(new), new[-1].hash) >= old_rank:
            return "stale", []
        dropped = self._move(fork, [])
        reason = best.connect_run(
            new, self.mempool.verified, lambda height, tip: fork_rank(height, tip) < old_rank
        )
        if fork_rank(best.height, best.tip.hash) >= old_rank:
            self._move(fork, dropped)
            return f"rejected:{reason}", []
        added = best.blocks[fork:]
        readd = [tx for block in dropped for tx in block.transactions]
        if any(isinstance(tx, RegistrationTransaction) for b in dropped + added for tx in b.transactions):
            readd += self.mempool.oldest()
            self.mempool.evict(tx.id for tx in readd)
        for tx in readd:
            self.mempool.readd(tx, best)
        self.mempool.evict(txid for block in added for txid in block.tx_ids)
        return "accepted-best", added
