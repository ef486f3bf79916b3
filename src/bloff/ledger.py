"""Ledger data model: transactions, blocks, chains, and their validation.

Transactions carry either a log digest (anchor) or a node admission
(registration). Canonical byte layouts are bit-exact and normative; the
JSON-lines chain file is a carrier whose hashes and signatures are always
computed over the canonical bytes, never over the JSON. A tx is its
canonical bytes: ``decode_tx`` wraps them without encoding them again, and
only building a tx encodes one.

One validation path: ``Chain.connect`` checks a new block once, against its
parent's state, and moves the chain onto it in place; ``Chain.disconnect``
moves it back. ``validate_chain`` folds the same step from genesis, for a
whole chain loaded from a file. A ``Chain`` has one owner, which moves it;
a reader elsewhere takes a ``copy``.

A node passes its ``VerifiedTxs`` record down these calls, so each tx
signature costs it one Ed25519 check. ``load_chain`` passes none and checks
every signature, rules first: ``validate_chain`` folds the blocks with every
rule but ``verify_tx``, then spreads the ``verify_tx`` checks of the blocks
before the first failing one over forked workers, one per CPU. A file that
breaks a rule thus costs no more checks than serially. A CLI call's own
txs (``bloff mine``'s pending txs, ``bloff submit``'s new ones) join that
pass once the rules pass, theirs and the chain's, and those that pass go
into the record the call keeps. The checks stay serial on one CPU, below
``MIN_TXS_PER_WORKER`` txs per worker, where ``os.fork`` is missing, and
while another thread is alive.
"""

from __future__ import annotations

import enum
import json
import os
import signal
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

from .crypto import (
    DIGEST_LEN,
    KEY_LEN,
    SIGNATURE_LEN,
    ZERO_DIGEST,
    Digest,
    KeyPair,
    Signature,
    hex_to_bytes,
    sha256_digest,
    sign,
    verify_signature,
)

TX_VERSION = 1
BLOCK_VERSION = 1
COMPACT_BLOCK_VERSION = 1

KIND_ANCHOR = 0x01
KIND_REGISTRATION = 0x02

MAX_SOURCE_ID_BYTES = 64
MAX_U64 = 2**64 - 1

HEADER_LEN = 1 + DIGEST_LEN + DIGEST_LEN + 8 + 1 + 8  # 82 bytes

# Fixed JSON key order for canonical chain-file lines.
_BLOCK_JSON_KEYS = (
    "version",
    "prev_hash",
    "merkle_root",
    "timestamp",
    "difficulty",
    "nonce",
    "block_hash",
    "txs",
)


class NodeRole(enum.Enum):
    CSP_MINER = "csp-miner"
    DEVICE = "device"
    STAKEHOLDER = "stakeholder"


ROLE_TO_BYTE = {
    NodeRole.CSP_MINER: 0x01,
    NodeRole.DEVICE: 0x02,
    NodeRole.STAKEHOLDER: 0x03,
}
BYTE_TO_ROLE = {b: r for r, b in ROLE_TO_BYTE.items()}

# Roles whose keys may submit anchor transactions; stakeholders verify only.
ANCHOR_ROLES = (NodeRole.CSP_MINER, NodeRole.DEVICE)


class TxDecodeError(ValueError):
    """Raised when bytes cannot be parsed as a transaction at all."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class ChainValidationError(Exception):
    """Chain replay failure, carrying the 1-based height and a reason tag."""

    def __init__(self, height: int, reason: str):
        super().__init__(f"invalid chain at height {height}: {reason}")
        self.height = height
        self.reason = reason


class ChainFileError(Exception):
    """Chain file line that cannot be decoded, carrying the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"chain file line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


def _check_u64(value: int, what: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= MAX_U64:
        raise ValueError(f"{what} must be an unsigned 64-bit integer")


# Every tx ends with the submitter's key and the signature. In an anchor,
# the source_id runs from after its length byte to the capture timestamp.
_TAIL_LEN = KEY_LEN + SIGNATURE_LEN
_SOURCE_LEN_AT = 2 + DIGEST_LEN
_STAMP_AT = -_TAIL_LEN - 8


class _CanonicalTx:
    """A tx is its canonical bytes: ``raw`` and their hash ``id``, both set
    once when the tx is made. Every field is a read-only view of ``raw``,
    ``==`` and ``hash`` follow ``raw``, and no attribute can be assigned.
    """

    __slots__ = ("raw", "id")

    def __init__(self, raw: bytes):
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "id", sha256_digest(raw))

    @classmethod
    def _wrap(cls, raw: bytes):
        """A tx of ``raw``, already checked, without encoding it again."""
        tx = object.__new__(cls)
        _CanonicalTx.__init__(tx, raw)
        return tx

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.raw == self.raw

    def __hash__(self) -> int:
        return hash(self.raw)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.raw.hex()})"

    version = property(lambda tx: tx.raw[0])
    kind = property(lambda tx: tx.raw[1])
    submitter_pubkey = property(lambda tx: tx.raw[-_TAIL_LEN:-SIGNATURE_LEN])
    signature = property(lambda tx: Signature(tx.raw[-SIGNATURE_LEN:]))


def _encode_preamble(version: int, kind: int, payload: bytes, submitter_pubkey: bytes) -> bytes:
    """Everything the submitter signs: all canonical bytes before the signature."""
    if len(submitter_pubkey) != KEY_LEN:
        raise ValueError("submitter_pubkey must be 32 bytes")
    return bytes([version, kind]) + payload + submitter_pubkey


class AnchorTransaction(_CanonicalTx):
    """Signed record binding a log digest to a submitter key and capture time.

    Bytes: version, kind, log_hash (32), source_id length (1), source_id
    (UTF-8), capture_timestamp (u64 big-endian), submitter_pubkey (32),
    signature (64).
    """

    __slots__ = ()

    def __init__(
        self,
        log_hash: Digest,
        source_id: str,
        capture_timestamp: int,
        submitter_pubkey: bytes,
        signature: Signature,
        version: int = TX_VERSION,
    ):
        signed = _anchor_preamble(log_hash, source_id, capture_timestamp, submitter_pubkey, version)
        super().__init__(signed + Signature(signature))

    log_hash = property(lambda tx: Digest(tx.raw[2:_SOURCE_LEN_AT]))
    source_id = property(lambda tx: tx.raw[_SOURCE_LEN_AT + 1 : _STAMP_AT].decode("utf-8"))
    capture_timestamp = property(lambda tx: int.from_bytes(tx.raw[_STAMP_AT:-_TAIL_LEN], "big"))


def _anchor_preamble(
    log_hash, source_id, capture_timestamp, submitter_pubkey, version=TX_VERSION
) -> bytes:
    source = source_id.encode("utf-8")
    if len(source) > MAX_SOURCE_ID_BYTES:
        raise ValueError(f"source_id exceeds {MAX_SOURCE_ID_BYTES} bytes")
    _check_u64(capture_timestamp, "capture_timestamp")
    payload = Digest(log_hash) + bytes([len(source)]) + source
    payload += struct.pack(">Q", capture_timestamp)
    return _encode_preamble(version, KIND_ANCHOR, payload, submitter_pubkey)


class RegistrationTransaction(_CanonicalTx):
    """Admission of a new node key, sponsored by an existing csp-miner.

    Bytes: version, kind, new_node_pubkey (32), role byte (1),
    submitter_pubkey (32), signature (64). ``role_byte`` is kept raw so that
    wire values outside the known range can be represented and reported by
    ``verify_tx`` instead of crashing decode.
    """

    __slots__ = ()

    def __init__(
        self,
        new_node_pubkey: bytes,
        role_byte: int,
        submitter_pubkey: bytes,
        signature: Signature,
        version: int = TX_VERSION,
    ):
        signed = _registration_preamble(new_node_pubkey, role_byte, submitter_pubkey, version)
        super().__init__(signed + Signature(signature))

    new_node_pubkey = property(lambda tx: tx.raw[2 : 2 + KEY_LEN])
    role_byte = property(lambda tx: tx.raw[2 + KEY_LEN])
    role = property(lambda tx: BYTE_TO_ROLE.get(tx.role_byte))


def _registration_preamble(new_node_pubkey, role_byte, submitter_pubkey, version=TX_VERSION) -> bytes:
    if len(new_node_pubkey) != KEY_LEN:
        raise ValueError("new_node_pubkey must be 32 bytes")
    if not 0 <= role_byte <= 255:
        raise ValueError("role_byte out of range")
    payload = new_node_pubkey + bytes([role_byte])
    return _encode_preamble(version, KIND_REGISTRATION, payload, submitter_pubkey)


Transaction = AnchorTransaction | RegistrationTransaction


def decode_tx(raw: bytes) -> Transaction:
    """Check that ``raw`` is one tx's canonical bytes and wrap them as it.

    Structural problems raise TxDecodeError. Semantic problems (unknown role
    byte, wrong version, bad signature) are left to ``verify_tx`` so that
    gossip handling can report them uniformly.
    """
    raw = bytes(raw)
    kind = raw[1] if len(raw) > 1 else None
    if kind == KIND_ANCHOR:
        source_len = raw[_SOURCE_LEN_AT] if len(raw) > _SOURCE_LEN_AT else 0
        if source_len > MAX_SOURCE_ID_BYTES:
            raise TxDecodeError("bad-source-id")
        if len(raw) != _SOURCE_LEN_AT + 1 + source_len + 8 + _TAIL_LEN:
            raise TxDecodeError("bad-length")
        try:
            raw[_SOURCE_LEN_AT + 1 : _STAMP_AT].decode("utf-8")
        except UnicodeDecodeError:
            raise TxDecodeError("bad-source-id") from None
        return AnchorTransaction._wrap(raw)
    if kind == KIND_REGISTRATION:
        if len(raw) != 2 + KEY_LEN + 1 + _TAIL_LEN:
            raise TxDecodeError("bad-length")
        return RegistrationTransaction._wrap(raw)
    raise TxDecodeError("bad-length" if kind is None else "bad-kind")


class VerifiedTxs:
    """Bounded record of the tx ids whose ``verify_tx`` checks passed on one
    node, evicted oldest first past ``cap``.

    A tx id hashes the full canonical bytes, signature included, and
    ``verify_tx`` depends on nothing else, so a recorded tx needs no second
    check. An evicted tx is simply checked again.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self._ids: OrderedDict[Digest, None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, txid: Digest) -> bool:
        return txid in self._ids

    def add(self, txid: Digest) -> None:
        self._ids[txid] = None
        if len(self._ids) > self.cap:
            self._ids.popitem(last=False)


def verify_tx(tx: Transaction, verified: VerifiedTxs | None = None) -> str | None:
    """Validate one transaction in isolation. Returns a reason tag or None.

    Checks version, field ranges and the signature over the canonical
    preamble. Registration sponsorship is a chain-context rule checked by
    ``validate_block``, not here. With a ``verified`` record, a tx whose id
    is in it passes unchecked, and a tx that passes is added to it.
    """
    if verified is not None and tx.id in verified:
        return None
    if tx.version != TX_VERSION:
        return "bad-version"
    if isinstance(tx, RegistrationTransaction) and tx.role is None:
        return "bad-role-tag"
    if not verify_signature(tx.submitter_pubkey, tx.raw[:-SIGNATURE_LEN], tx.signature):
        return "bad-signature"
    if verified is not None:
        verified.add(tx.id)
    return None


# Measured on a 2-vCPU host, inside a process holding a 2,014-tx chain: two
# workers took 34 ms on 128 txs against 28 ms serially, and 34 ms on 192
# against 40 ms. The break-even lies between 64 and 96 txs per worker, so
# none is forked below 96.
MIN_TXS_PER_WORKER = 96


def verify_txs_forked(txs: Sequence[Transaction], fatal: int | None = None) -> VerifiedTxs:
    """Run ``verify_tx`` over ``txs`` on every CPU; return the ids that passed.

    ``cryptography``'s Ed25519 verify holds the GIL, so the work goes to
    forked processes: each child checks one contiguous share and writes one
    byte per tx to a pipe, and the parent checks the first share itself. A
    child's bytes count only if it exited 0 and wrote exactly its share;
    any other outcome, and any failing tx, leaves those ids unrecorded for
    the caller's in-order pass to check. A failing tx among the first
    ``fatal`` (default all) fails the chain at or before it, so when one is
    in the parent's share the parent stops there and kills the children; a
    later one is just left unrecorded. The parent checks every tx itself,
    and forks nothing, when fewer than two workers would have
    ``MIN_TXS_PER_WORKER`` txs each, when the platform cannot fork, or while
    another thread is alive (a child forked from a threaded process can
    deadlock).
    """
    fatal = len(txs) if fatal is None else fatal
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        workers = max(1, min(len(os.sched_getaffinity(0)), len(txs) // MIN_TXS_PER_WORKER))
    bounds = [-(-len(txs) * k // workers) for k in range(workers + 1)]
    record = VerifiedTxs(len(txs))
    children = []
    try:
        for start, end in zip(bounds[1:], bounds[2:]):
            try:
                children.append((start, end, *_fork_checker(txs[start:end])))
            except OSError:  # out of processes or descriptors
                pass
        for index, tx in enumerate(txs[: bounds[1]]):
            if verify_tx(tx, record) is not None and index < fatal:
                for _, _, pid, _ in children:
                    os.kill(pid, signal.SIGKILL)  # not yet reaped, so still ours
                break
    finally:
        results = [(start, end, _reap(pid, fd)) for start, end, pid, fd in children]
    for start, end, verdicts in results:
        if len(verdicts) == end - start:
            for tx, passed in zip(txs[start:end], verdicts):
                if passed:
                    record.add(tx.id)
    return record


def _fork_checker(share: Sequence[Transaction]) -> tuple[int, int]:
    """Fork a child that checks ``share``; its pid and the pipe it writes
    to. The child never returns."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            verdicts = bytes(verify_tx(tx) is None for tx in share)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(verdicts)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _reap(pid: int, read_fd: int) -> bytes:
    """A child's verdict bytes, or none unless it exited 0."""
    with os.fdopen(read_fd, "rb") as pipe:
        verdicts = pipe.read()
    try:
        _, status = os.waitpid(pid, 0)
    except ChildProcessError:  # reaped elsewhere: its exit code is unknown
        return b""
    return verdicts if os.waitstatus_to_exitcode(status) == 0 else b""


def build_anchor_tx(
    log_hash: Digest,
    source_id: str,
    capture_timestamp: int,
    keypair: KeyPair,
) -> AnchorTransaction:
    """Construct and sign an anchor transaction; the result passes verify_tx."""
    preamble = _anchor_preamble(log_hash, source_id, capture_timestamp, keypair.public_key)
    return AnchorTransaction._wrap(preamble + sign(keypair, preamble))


def build_registration_tx(
    new_node_pubkey: bytes,
    role: NodeRole,
    sponsor: KeyPair,
) -> RegistrationTransaction:
    """Construct and sign a registration sponsored by ``sponsor``."""
    preamble = _registration_preamble(new_node_pubkey, ROLE_TO_BYTE[role], sponsor.public_key)
    return RegistrationTransaction._wrap(preamble + sign(sponsor, preamble))


# ---------------------------------------------------------------------------
# Merkle tree
# ---------------------------------------------------------------------------

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def merkle_leaf(txid: Digest) -> Digest:
    return sha256_digest(_LEAF_PREFIX + txid)


def merkle_node(left: Digest, right: Digest) -> Digest:
    return sha256_digest(_NODE_PREFIX + left + right)


def merkle_root(transactions: list[Transaction]) -> Digest:
    """Binary hash tree over tx ids; an odd level duplicates its last node."""
    return merkle_levels([tx.id for tx in transactions])[-1][0]


def merkle_levels(txids: Sequence[Digest]) -> list[list[Digest]]:
    """Every level of the tree over ``txids``, leaves first and the root
    last. An odd level below the root ends in a copy of its last node, the
    sibling that node is hashed with."""
    if not txids:
        raise ValueError("merkle root of an empty transaction list is undefined")
    levels = [[merkle_leaf(txid) for txid in txids]]
    while len(level := levels[-1]) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        levels.append([merkle_node(level[i], level[i + 1]) for i in range(0, len(level), 2)])
    return levels


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockHeader:
    prev_hash: Digest
    merkle_root: Digest
    timestamp: int
    difficulty: int
    nonce: int
    version: int = BLOCK_VERSION

    def __post_init__(self) -> None:
        _check_u64(self.timestamp, "timestamp")
        _check_u64(self.nonce, "nonce")
        if not 0 <= self.difficulty <= 255:
            raise ValueError("difficulty must be in 0..255")
        if not 0 <= self.version <= 255:
            raise ValueError("version must be in 0..255")


def header_bytes(header: BlockHeader) -> bytes:
    return (
        bytes([header.version])
        + bytes(header.prev_hash)
        + bytes(header.merkle_root)
        + struct.pack(">Q", header.timestamp)
        + bytes([header.difficulty])
        + struct.pack(">Q", header.nonce)
    )


def decode_header(raw: bytes) -> BlockHeader:
    if len(raw) != HEADER_LEN:
        raise ValueError(f"header must be {HEADER_LEN} bytes, got {len(raw)}")
    version = raw[0]
    prev_hash = Digest(raw[1:33])
    root = Digest(raw[33:65])
    (timestamp,) = struct.unpack(">Q", raw[65:73])
    difficulty = raw[73]
    (nonce,) = struct.unpack(">Q", raw[74:82])
    return BlockHeader(
        prev_hash=prev_hash,
        merkle_root=root,
        timestamp=timestamp,
        difficulty=difficulty,
        nonce=nonce,
        version=version,
    )


def block_hash(header: BlockHeader) -> Digest:
    return sha256_digest(header_bytes(header))


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    transactions: tuple[Transaction, ...]

    @cached_property
    def hash(self) -> Digest:
        """The header hash, computed once per block object."""
        return block_hash(self.header)

    @cached_property
    def tx_ids(self) -> tuple[Digest, ...]:
        """Each tx's id, in block order."""
        return tuple(tx.id for tx in self.transactions)

    @cached_property
    def tx_root(self) -> Digest:
        """The Merkle root of ``tx_ids``, computed once per block object."""
        return merkle_levels(self.tx_ids)[-1][0]


def _frame(items: list[bytes]) -> bytes:
    """u32 count, then each item as a u32 length and its bytes."""
    parts = [struct.pack(">I", len(items))]
    for item in items:
        parts.append(struct.pack(">I", len(item)))
        parts.append(item)
    return b"".join(parts)


def _unframe(raw: bytes, offset: int, what: str, decode) -> list:
    """``decode`` of each item ``_frame`` wrote at ``raw[offset:]``, which
    must end with the last item; errors name ``what``."""
    if len(raw) < offset + 4:
        raise ValueError(f"{what} bytes too short")
    (count,) = struct.unpack(">I", raw[offset:offset + 4])
    offset += 4
    items = []
    for _ in range(count):
        if offset + 4 > len(raw):
            raise ValueError(f"truncated {what} bytes")
        (length,) = struct.unpack(">I", raw[offset:offset + 4])
        offset += 4
        if offset + length > len(raw):
            raise ValueError(f"truncated {what} bytes")
        items.append(decode(raw[offset:offset + length]))
        offset += length
    if offset != len(raw):
        raise ValueError(f"trailing bytes after {what}")
    return items


def encode_block(block: Block) -> bytes:
    """Canonical binary block: header, tx count, then length-prefixed txs."""
    return header_bytes(block.header) + _frame([tx.raw for tx in block.transactions])


def decode_block(raw: bytes) -> Block:
    txs = _unframe(raw, HEADER_LEN, "block", decode_tx)
    return Block(header=decode_header(raw[:HEADER_LEN]), transactions=tuple(txs))


def encode_compact_block(block: Block) -> bytes:
    """Gossiped block: version, header, u32 tx count, then each tx id in
    block order. The receiver takes the txs from its own mempool."""
    return (
        bytes([COMPACT_BLOCK_VERSION])
        + header_bytes(block.header)
        + struct.pack(">I", len(block.tx_ids))
        + b"".join(block.tx_ids)
    )


def decode_compact_block(raw: bytes) -> tuple[BlockHeader, list[Digest]]:
    """The header and the tx ids of ``encode_compact_block`` bytes."""
    start = 1 + HEADER_LEN + 4
    if len(raw) < start:
        raise ValueError("compact block bytes too short")
    if raw[0] != COMPACT_BLOCK_VERSION:
        raise ValueError(f"unknown compact block version {raw[0]}")
    (count,) = struct.unpack(">I", raw[1 + HEADER_LEN : start])
    end = start + count * DIGEST_LEN
    if end > len(raw):
        raise ValueError("truncated compact block bytes")
    if end < len(raw):
        raise ValueError("trailing bytes after compact block")
    txids = [Digest(raw[i : i + DIGEST_LEN]) for i in range(start, end, DIGEST_LEN)]
    return decode_header(raw[1 : 1 + HEADER_LEN]), txids


def encode_blocks(blocks: list[Block]) -> bytes:
    """Length-prefixed block sequence, used by chain-response payloads."""
    return _frame([encode_block(block) for block in blocks])


def decode_blocks(raw: bytes) -> list[Block]:
    return _unframe(raw, 0, "chain", decode_block)


# ---------------------------------------------------------------------------
# JSON-lines chain file codec
# ---------------------------------------------------------------------------


def block_to_json_line(block: Block) -> str:
    """One canonical JSON line per block: fixed key order, compact separators,
    lowercase hex. The loader rejects any other rendering byte-for-byte."""
    obj = {
        "version": block.header.version,
        "prev_hash": block.header.prev_hash.hex(),
        "merkle_root": block.header.merkle_root.hex(),
        "timestamp": block.header.timestamp,
        "difficulty": block.header.difficulty,
        "nonce": block.header.nonce,
        "block_hash": block.hash.hex(),
        "txs": [tx.raw.hex() for tx in block.transactions],
    }
    return json.dumps(obj, separators=(",", ":"))


def _strict_int(value: object, what: str, upper: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= upper:
        raise ValueError(f"{what} is not an integer in range")
    return value


def block_from_json_line(line: str, line_no: int = 0) -> Block:
    """Parse one chain-file line, enforcing the canonical rendering.

    The stored block_hash field must equal the hash recomputed from the
    canonical header bytes; with that, any single-byte change to a serialized
    header is detectable without relying on probabilistic checks.
    """
    try:
        obj = json.loads(line)
        if not isinstance(obj, dict) or set(obj) != set(_BLOCK_JSON_KEYS):
            raise ValueError("unexpected fields")
        header = BlockHeader(
            prev_hash=Digest.from_hex(obj["prev_hash"]),
            merkle_root=Digest.from_hex(obj["merkle_root"]),
            timestamp=_strict_int(obj["timestamp"], "timestamp", MAX_U64),
            difficulty=_strict_int(obj["difficulty"], "difficulty", 255),
            nonce=_strict_int(obj["nonce"], "nonce", MAX_U64),
            version=_strict_int(obj["version"], "version", 255),
        )
        stated_hash = Digest.from_hex(obj["block_hash"])
        if not isinstance(obj["txs"], list):
            raise ValueError("txs is not a list")
        txs = tuple(decode_tx(hex_to_bytes(item)) for item in obj["txs"])
        block = Block(header=header, transactions=txs)
        if block_to_json_line(block) != line:
            raise ValueError("non-canonical block line")
        if stated_hash != block.hash:
            raise ValueError("block_hash field does not match header")
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ChainFileError(line_no, str(exc)) from None
    return block


# ---------------------------------------------------------------------------
# Proof-of-work target
# ---------------------------------------------------------------------------


def leading_zero_bits(digest: bytes) -> int:
    """Count zero bits from the MSB of byte 0 downward."""
    count = 0
    for byte in digest:
        if byte == 0:
            count += 8
            continue
        # 8 - bit_length gives the zero bits at the top of this byte
        count += 8 - byte.bit_length()
        break
    return count


# ---------------------------------------------------------------------------
# Chain replay and validation
# ---------------------------------------------------------------------------


@dataclass
class Chain:
    """A fully validated block sequence plus the indexes derived by replay.

    Its one owner moves it in place with ``connect`` and ``disconnect``, one
    block at a time; ``copy`` gives another owner a chain of its own.
    """

    blocks: list[Block]
    registered_nodes: dict[bytes, NodeRole] = field(default_factory=dict)
    anchor_index: dict[Digest, list[tuple[int, int]]] = field(default_factory=dict)
    tx_ids: set[Digest] = field(default_factory=set)
    heights: dict[Digest, int] = field(default_factory=dict)  # block hash -> height

    @property
    def height(self) -> int:
        return len(self.blocks)

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    def anchor_locations(self, log_hash: Digest) -> list[tuple[int, int]]:
        """All (height, tx index) pairs anchoring ``log_hash``; heights are 1-based."""
        return list(self.anchor_index.get(log_hash, ()))

    def copy(self) -> Chain:
        index = {log_hash: list(locations) for log_hash, locations in self.anchor_index.items()}
        return Chain(
            list(self.blocks), dict(self.registered_nodes), index, set(self.tx_ids), dict(self.heights)
        )

    def connect(self, block: Block, verified: VerifiedTxs | None = None) -> None:
        """The one validation step: check ``block`` against this chain's
        state, then ``advance`` onto it. Raises ChainValidationError at the
        new height and leaves the chain unchanged."""
        reason = validate_block(block, self, verified)
        if reason is not None:
            raise ChainValidationError(self.height + 1, reason)
        self.advance(block)

    def advance(self, block: Block) -> None:
        """Add ``block``, already known to be valid on this tip (so it admits
        each of its registrations), to the blocks and the four indexes."""
        height = self.height + 1
        for tx_index, tx in enumerate(block.transactions):
            if isinstance(tx, AnchorTransaction):
                self.anchor_index.setdefault(tx.log_hash, []).append((height, tx_index))
            else:
                self.registered_nodes[tx.new_node_pubkey] = tx.role
        self.tx_ids.update(block.tx_ids)
        self.heights[block.hash] = height
        self.blocks.append(block)

    def disconnect(self) -> Block:
        """Pop the tip and remove exactly what ``advance`` added for it: its
        tx ids, its anchors (the last entries of their lists) and its
        registrations (a valid block admitted every one)."""
        block = self.blocks.pop()
        del self.heights[block.hash]
        self.tx_ids.difference_update(block.tx_ids)
        for tx in block.transactions:
            if isinstance(tx, AnchorTransaction):
                locations = self.anchor_index[tx.log_hash]
                locations.pop()
                if not locations:
                    del self.anchor_index[tx.log_hash]
            else:
                del self.registered_nodes[tx.new_node_pubkey]
        return block


def tx_context_reason(
    tx: Transaction,
    registered_nodes: dict[bytes, NodeRole],
    genesis: bool = False,
) -> str | None:
    """Registry rules shared by block validation, mining and submission.

    Anchors must come from a registered device or csp-miner key; registration
    sponsors must be registered csp-miners (the genesis block bootstraps the
    miner set and is exempt); a pubkey may be registered only once.
    """
    if isinstance(tx, AnchorTransaction):
        role = registered_nodes.get(tx.submitter_pubkey)
        if role is None:
            return "unregistered-submitter"
        if role not in ANCHOR_ROLES:
            return "role-not-permitted"
        return None
    if tx.new_node_pubkey in registered_nodes:
        return "already-registered"
    if genesis:
        return None
    if registered_nodes.get(tx.submitter_pubkey) != NodeRole.CSP_MINER:
        return "unregistered-sponsor"
    return None


def registry_walk(
    txs, registry: dict[bytes, NodeRole], genesis: bool = False
) -> Iterator[tuple[Transaction, str | None]]:
    """Yield each tx with its ``tx_context_reason``, admitting each passing
    registration into ``registry`` (the caller's copy) for the txs after it."""
    for tx in txs:
        reason = tx_context_reason(tx, registry, genesis)
        if reason is None and isinstance(tx, RegistrationTransaction) and tx.role is not None:
            registry[tx.new_node_pubkey] = tx.role
        yield tx, reason


def validate_block(
    block: Block, parent: Chain, verified: VerifiedTxs | None = None
) -> str | None:
    """Check one block against its parent chain's state.

    ``parent`` is empty only for the genesis block. Checks run in a fixed
    order and the first failure's reason tag is returned (per tx,
    ``verify_tx`` before registry rules; a tx id already on ``parent`` or
    earlier in the block after both). ``parent`` is not modified;
    ``verified`` is passed to ``verify_tx``.
    """
    if not block.transactions:
        return "empty-block"
    if block.header.version != BLOCK_VERSION:
        return "bad-version"
    if not parent.blocks:
        if block.header.prev_hash != ZERO_DIGEST:
            return "bad-genesis-prev-hash"
    elif block.header.prev_hash != parent.tip.hash:
        return "bad-linkage"
    if block.tx_root != block.header.merkle_root:
        return "merkle-mismatch"
    if leading_zero_bits(block.hash) < block.header.difficulty:
        return "bad-pow"
    if parent.blocks and block.header.timestamp < parent.tip.header.timestamp:
        return "bad-timestamp"
    registry = dict(parent.registered_nodes)
    checks = registry_walk(block.transactions, registry, genesis=not parent.blocks)
    for tx, reason in checks:
        reason = verify_tx(tx, verified) or reason
        if reason is not None:
            return reason
    if len(set(block.tx_ids)) < len(block.tx_ids) or not parent.tx_ids.isdisjoint(block.tx_ids):
        return "duplicate-tx"
    return None


class _EveryId(VerifiedTxs):
    """A stand-in record that holds every id: a fold with it skips
    ``verify_tx`` and checks every other rule."""

    def __contains__(self, txid: Digest) -> bool:
        return True


def validate_chain(
    blocks: list[Block], pending: Sequence[Transaction] = (), record: VerifiedTxs | None = None
) -> Chain:
    """Replay from genesis, rebuilding the registry and the indexes.

    Raises ChainValidationError carrying the first failing 1-based height.
    The rules run before the signatures, on one path: the blocks are folded
    with every rule but ``verify_tx``, then the txs before the first failing
    block go to ``verify_txs_forked``. A chain that passes both is returned
    as folded; otherwise it is folded again with the ids that passed, which
    gives the height and reason a serial fold gives.

    ``pending`` are the caller's own txs. When the chain's rules pass, those
    that pass the registry rules too, in order on the chain's registry, join
    the same pass, skipping any already on the chain or in ``record``. A
    failing one stops nothing; the ids of those that pass go into
    ``record`` once the chain is valid. A tx left out is for the caller to
    check, as without a pass.
    """
    if not blocks:
        raise ChainValidationError(0, "empty-chain")
    try:
        chain, checked = _fold(blocks, _EveryId(0)), blocks
    except ChainValidationError as exc:
        chain, checked = None, blocks[: exc.height - 1]
    txs = [tx for block in checked for tx in block.transactions]
    own: dict[Digest, Transaction] = {}
    if chain is not None and record is not None:
        for tx, reason in registry_walk(pending, dict(chain.registered_nodes)):
            if reason is None and tx.id not in chain.tx_ids and tx.id not in record:
                own.setdefault(tx.id, tx)
    verified = verify_txs_forked([*txs, *own.values()], fatal=len(txs))
    passed = [txid for txid in own if txid in verified]
    if chain is None or len(verified) < len(txs) + len(passed):
        chain = _fold(blocks, verified)
    for txid in passed:
        record.add(txid)
    return chain


def _fold(blocks: list[Block], verified: VerifiedTxs) -> Chain:
    """``Chain.connect`` of each block in order, from an empty chain."""
    chain = Chain(blocks=[])
    for block in blocks:
        chain.connect(block, verified)
    return chain


def make_genesis(authorities: list[KeyPair], timestamp: int) -> Block:
    """Bootstrap block: a self-signed csp-miner registration per authority.

    Self-signing needs each authority's secret key, so this takes keypairs.
    Genesis requires no proof-of-work (difficulty 0) and is exempt from the
    sponsor-must-be-registered rule.
    """
    if not authorities:
        raise ValueError("at least one authority keypair is required")
    seen = set()
    txs = []
    for keypair in authorities:
        if keypair.public_key in seen:
            raise ValueError("duplicate authority public key")
        seen.add(keypair.public_key)
        txs.append(build_registration_tx(keypair.public_key, NodeRole.CSP_MINER, keypair))
    header = BlockHeader(
        prev_hash=ZERO_DIGEST,
        merkle_root=merkle_root(txs),
        timestamp=timestamp,
        difficulty=0,
        nonce=0,
    )
    return Block(header=header, transactions=tuple(txs))


def tx_to_dict(tx: Transaction) -> dict:
    """JSON-friendly view of a transaction, used by inspect and reports."""
    base = {
        "tx_id": tx.id.hex(),
        "version": tx.version,
        "submitter_pubkey": tx.submitter_pubkey.hex(),
        "signature": tx.signature.hex(),
    }
    if isinstance(tx, AnchorTransaction):
        base["kind"] = "anchor"
        base["log_hash"] = tx.log_hash.hex()
        base["source_id"] = tx.source_id
        base["capture_timestamp"] = tx.capture_timestamp
    else:
        base["kind"] = "registration"
        base["new_node_pubkey"] = tx.new_node_pubkey.hex()
        base["role"] = tx.role.value if tx.role is not None else tx.role_byte
    return base
