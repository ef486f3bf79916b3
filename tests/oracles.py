"""Independent oracles used to cross-check the implementation.

Each oracle re-derives a result from first principles with deliberately
different code shape (recursion instead of iteration, per-bit loops,
direct library calls) so that agreement is meaningful.
"""

from __future__ import annotations

import hashlib
import struct

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from bloff.consensus import fork_rank
from bloff.ledger import (
    AnchorTransaction,
    Block,
    ChainValidationError,
    RegistrationTransaction,
    header_bytes,
)


def oracle_sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def oracle_leading_zero_bits(digest: bytes) -> int:
    """Naive per-bit count, MSB of byte 0 first."""
    count = 0
    for byte in digest:
        for shift in range(7, -1, -1):
            if (byte >> shift) & 1:
                return count
            count += 1
    return count


def oracle_merkle_root(txids: list[bytes]) -> bytes:
    """Top-down recursive tree over leaf = H(0x00||id), node = H(0x01||l||r)."""
    leaves = [oracle_sha256(b"\x00" + txid) for txid in txids]

    def reduce(level: list[bytes]) -> bytes:
        if len(level) == 1:
            return level[0]
        if len(level) % 2 == 1:
            level = level + [level[-1]]
        parents = [
            oracle_sha256(b"\x01" + level[i] + level[i + 1]) for i in range(0, len(level), 2)
        ]
        return reduce(parents)

    return reduce(leaves)


def oracle_verify_sig(pubkey: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(pubkey).verify(bytes(signature), message)
        return True
    except (InvalidSignature, ValueError):
        return False


def oracle_tx_bytes(tx) -> bytes:
    """The canonical layout packed from the tx's fields, one ``struct``
    format per kind: version, kind, payload, submitter key, signature."""
    if isinstance(tx, AnchorTransaction):
        source = tx.source_id.encode("utf-8")
        return struct.pack(
            f">BB32sB{len(source)}sQ32s64s",
            tx.version, 1, tx.log_hash, len(source), source, tx.capture_timestamp,
            tx.submitter_pubkey, tx.signature,
        )
    return struct.pack(
        ">BB32sB32s64s",
        tx.version, 2, tx.new_node_pubkey, tx.role_byte, tx.submitter_pubkey, tx.signature,
    )


def oracle_tx_id(tx) -> bytes:
    return oracle_sha256(oracle_tx_bytes(tx))


def _oracle_tx_valid(tx) -> bool:
    if tx.version != 1:
        return False
    if isinstance(tx, RegistrationTransaction) and tx.role_byte not in (1, 2, 3):
        return False
    preamble = oracle_tx_bytes(tx)[:-64]
    return oracle_verify_sig(tx.submitter_pubkey, preamble, tx.signature)


def oracle_validate_chain(blocks: list[Block]) -> tuple[bool, int, str]:
    """Brute-force rule-by-rule re-check; returns (ok, failing height, why)."""
    if not blocks:
        return False, 0, "empty"
    roles = {1: "csp-miner", 2: "device", 3: "stakeholder"}
    registry: dict[bytes, str] = {}
    for index, block in enumerate(blocks):
        height = index + 1
        header = block.header
        if not block.transactions:
            return False, height, "no txs"
        if header.version != 1:
            return False, height, "version"
        if height == 1:
            if header.prev_hash != b"\x00" * 32:
                return False, height, "genesis prev"
        else:
            parent = blocks[index - 1].header
            if header.prev_hash != oracle_sha256(header_bytes(parent)):
                return False, height, "linkage"
            if header.timestamp < parent.timestamp:
                return False, height, "timestamp"
        txids = [oracle_tx_id(tx) for tx in block.transactions]
        if oracle_merkle_root(txids) != bytes(header.merkle_root):
            return False, height, "merkle"
        if oracle_leading_zero_bits(oracle_sha256(header_bytes(header))) < header.difficulty:
            return False, height, "pow"
        for tx in block.transactions:
            if not _oracle_tx_valid(tx):
                return False, height, "tx"
            if isinstance(tx, AnchorTransaction):
                if registry.get(tx.submitter_pubkey) not in ("csp-miner", "device"):
                    return False, height, "submitter"
            else:
                if tx.new_node_pubkey in registry:
                    return False, height, "re-registration"
                if height > 1 and registry.get(tx.submitter_pubkey) != "csp-miner":
                    return False, height, "sponsor"
                registry[tx.new_node_pubkey] = roles[tx.role_byte]
    return True, 0, ""


def oracle_anchor_scan(blocks: list[Block]) -> dict[bytes, list[tuple[int, int]]]:
    """Linear scan building log_hash -> [(height, tx index)] from scratch."""
    index: dict[bytes, list[tuple[int, int]]] = {}
    for block_index, block in enumerate(blocks):
        for tx_index, tx in enumerate(block.transactions):
            if isinstance(tx, AnchorTransaction):
                index.setdefault(bytes(tx.log_hash), []).append((block_index + 1, tx_index))
    return index


def oracle_connect_run(state, blocks: list[Block]):
    """``NodeState._connect_run`` as it was when a node connected each new
    block of a run in turn, checking its signatures inline on one CPU: the
    serial reference. Returns the status, the blocks ``best`` gained, and
    the height and reason of the block that failed (None when none did)."""
    best = state.best
    new = [b for b in blocks if b.hash not in best.heights]
    if not new:
        return "duplicate", [], None
    fork = best.heights.get(new[0].header.prev_hash)
    if fork is None:
        return "orphaned", [], None
    old_rank = fork_rank(best.height, best.tip.hash)
    if fork_rank(fork + len(new), new[-1].hash) >= old_rank:
        return "stale", [], None
    dropped = state._move(fork, [])
    failed = None
    for block in new:
        try:
            best.connect(block, state.mempool.verified)
        except ChainValidationError as exc:
            failed = exc.height, exc.reason
            break
    if fork_rank(best.height, best.tip.hash) >= old_rank:
        state._move(fork, dropped)
        return f"rejected:{failed[1]}", [], failed
    for block in dropped:
        for tx in block.transactions:
            state.mempool.readd(tx, best)
    added = best.blocks[fork:]
    state.mempool.evict(txid for block in added for txid in block.tx_ids)
    return "accepted-best", added, failed
