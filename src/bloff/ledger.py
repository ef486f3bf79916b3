"""Ledger data model: transactions, blocks, chains, and their validation.

Transactions carry either a log digest (anchor) or a node admission
(registration). Canonical byte layouts are bit-exact and normative; the
JSON-lines chain file is a carrier whose hashes and signatures are always
computed over the canonical bytes, never over the JSON. A tx is its
canonical bytes and is made only from them: its kind's constructor runs the
kind's structural check, ``decode_tx`` picks the kind by its byte, and only
building a tx encodes one. A header is made only within its fields' widths,
and a chain-file line is read only when it is the exact rendering of the
block it reads as.

One validation path: ``Chain.connect`` checks a new block once, against its
parent's state, and moves the chain onto it in place; ``Chain.disconnect``
moves it back. ``Chain.connect_run`` connects a run of blocks, a node's
catch-up or, from an empty chain, a whole chain file (``validate_chain``):
every rule but ``verify_tx`` first, then the valid prefix's ``verify_tx``
checks, spread over forked workers, one per CPU. A run that breaks a rule
thus costs no more checks than serially, and one whose valid prefix cannot
win costs none. The checks stay serial on one CPU, below
``MIN_TXS_PER_WORKER`` txs per worker, where ``os.fork`` is missing, and
while another thread is alive. A ``Chain`` has one owner, which moves it; a
reader elsewhere takes a ``copy``.

A node passes its ``VerifiedTxs`` record down these calls, so each tx
signature costs it one Ed25519 check. ``load_chain`` passes none and checks
every signature above the prefix its caller's checkpoint vouches for. A
load with a checkpoint passes its key as ``signer``: that key's own txs are
checked by signing them again, and all others are verified. A reader's key
signs nothing on the chain, so its load verifies every signature it checks.
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
from typing import Callable, Mapping, Sequence

from .crypto import (
    DIGEST_LEN,
    KEY_LEN,
    SIGNATURE_LEN,
    ZERO_DIGEST,
    Digest,
    KeyPair,
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

# The 82-byte header: version u8, prev_hash, merkle_root, timestamp u64,
# difficulty u8, nonce u64, big-endian.
_HEADER = struct.Struct(">B32s32sQBQ")
HEADER_LEN = _HEADER.size


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


def _check_uint(value: object, bits: int, what: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < 1 << bits:
        raise ValueError(f"{what} must be an unsigned {bits}-bit integer")


# Every tx ends with the submitter's key and the signature. In an anchor,
# the source_id runs from after its length byte to the capture timestamp.
_TAIL_LEN = KEY_LEN + SIGNATURE_LEN
_SOURCE_LEN_AT = 2 + DIGEST_LEN
_STAMP_AT = -_TAIL_LEN - 8


class _CanonicalTx:
    """A tx is its canonical bytes: ``raw`` and their hash ``id``, both set
    once when the tx is made, and the one way to make it is from ``raw``,
    which must pass its kind's structural check (``_check``); TxDecodeError
    otherwise. Every field is a read-only view of ``raw``, ``==`` and
    ``hash`` follow ``raw``, and no attribute can be assigned.
    """

    __slots__ = ("raw", "id")
    KIND: int

    def __init__(self, raw: bytes):
        raw = bytes(raw)
        if len(raw) < 2:
            raise TxDecodeError("bad-length")
        if raw[1] != self.KIND:
            raise TxDecodeError("bad-kind")
        self._check(raw)
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "id", sha256_digest(raw))

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
    signature = property(lambda tx: tx.raw[-SIGNATURE_LEN:])


def _encode_preamble(kind: int, payload: bytes, submitter_pubkey: bytes) -> bytes:
    """Everything the submitter signs: all canonical bytes before the signature."""
    return bytes([TX_VERSION, kind]) + payload + submitter_pubkey


class AnchorTransaction(_CanonicalTx):
    """Signed record binding a log digest to a submitter key and capture time.

    Bytes: version, kind, log_hash (32), source_id length (1), source_id
    (UTF-8), capture_timestamp (u64 big-endian), submitter_pubkey (32),
    signature (64).
    """

    __slots__ = ()
    KIND = KIND_ANCHOR

    @staticmethod
    def _check(raw: bytes) -> None:
        source_len = raw[_SOURCE_LEN_AT] if len(raw) > _SOURCE_LEN_AT else 0
        if source_len > MAX_SOURCE_ID_BYTES:
            raise TxDecodeError("bad-source-id")
        if len(raw) != _SOURCE_LEN_AT + 1 + source_len + 8 + _TAIL_LEN:
            raise TxDecodeError("bad-length")
        try:
            raw[_SOURCE_LEN_AT + 1 : _STAMP_AT].decode("utf-8")
        except UnicodeDecodeError:
            raise TxDecodeError("bad-source-id") from None

    log_hash = property(lambda tx: tx.raw[2:_SOURCE_LEN_AT])
    source_id = property(lambda tx: tx.raw[_SOURCE_LEN_AT + 1 : _STAMP_AT].decode("utf-8"))
    capture_timestamp = property(lambda tx: int.from_bytes(tx.raw[_STAMP_AT:-_TAIL_LEN], "big"))


class RegistrationTransaction(_CanonicalTx):
    """Admission of a new node key, sponsored by an existing csp-miner.

    Bytes: version, kind, new_node_pubkey (32), role byte (1),
    submitter_pubkey (32), signature (64). ``role_byte`` is kept raw so that
    wire values outside the known range can be represented and reported by
    ``verify_tx`` instead of crashing decode.
    """

    __slots__ = ()
    KIND = KIND_REGISTRATION

    @staticmethod
    def _check(raw: bytes) -> None:
        if len(raw) != 2 + KEY_LEN + 1 + _TAIL_LEN:
            raise TxDecodeError("bad-length")

    new_node_pubkey = property(lambda tx: tx.raw[2 : 2 + KEY_LEN])
    role_byte = property(lambda tx: tx.raw[2 + KEY_LEN])
    role = property(lambda tx: BYTE_TO_ROLE.get(tx.role_byte))


Transaction = AnchorTransaction | RegistrationTransaction
_TX_KINDS = {KIND_ANCHOR: AnchorTransaction, KIND_REGISTRATION: RegistrationTransaction}


def decode_tx(raw: bytes) -> Transaction:
    """The tx of ``raw``, made by the class its kind byte names.

    Structural problems raise TxDecodeError. Semantic problems (unknown role
    byte, wrong version, bad signature) are left to ``verify_tx`` so that
    gossip handling can report them uniformly.
    """
    # A raw too short for a kind byte gets its bad-length from the constructor.
    cls = _TX_KINDS.get(raw[1]) if len(raw) > 1 else AnchorTransaction
    if cls is None:
        raise TxDecodeError("bad-kind")
    return cls(raw)


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


def verify_tx(
    tx: Transaction, verified: VerifiedTxs | None = None, signer: KeyPair | None = None
) -> str | None:
    """Validate one transaction in isolation. Returns a reason tag or None.

    Checks version, field ranges and the signature over the canonical
    preamble. Registration sponsorship is a chain-context rule checked by
    ``validate_block``, not here. With a ``verified`` record, a tx whose id
    is in it passes unchecked, and a tx that passes is added to it.

    A tx of ``signer``'s own key (the one its secret derives) is checked by
    signing its preamble again, at a quarter of a verify's cost: Ed25519
    signing is deterministic (RFC 8032), so equal bytes are the one valid
    signature it makes, and any other signature is verified as usual.
    """
    if verified is not None and tx.id in verified:
        return None
    if tx.version != TX_VERSION:
        return "bad-version"
    if isinstance(tx, RegistrationTransaction) and tx.role is None:
        return "bad-role-tag"
    preamble, signature = tx.raw[:-SIGNATURE_LEN], tx.signature
    if not (
        signer is not None
        and tx.submitter_pubkey == signer.public_key
        and sign(signer, preamble) == signature
    ) and not verify_signature(tx.submitter_pubkey, preamble, signature):
        return "bad-signature"
    if verified is not None:
        verified.add(tx.id)
    return None


# Measured on a 2-vCPU host, inside a process holding a 2,014-tx chain
# (medians of 41): two workers took 4.6 ms on 20 txs against 2.7 ms serially,
# 5.7 against 5.4 on 40, 10.6 against 12.9 on 96 and 19.5 against 32.4 on
# 192. The break-even lies near 20 txs per worker; the constant stays at 96
# until a lower one shows a gain on a workload.
MIN_TXS_PER_WORKER = 96


def verify_txs_forked(
    txs: Sequence[Transaction], record: VerifiedTxs, signer: KeyPair | None = None
) -> bool:
    """Run ``verify_tx`` over ``txs``, with ``signer``, on every CPU; add the
    ids that pass to ``record``, and return whether every tx did.

    ``cryptography``'s Ed25519 verify holds the GIL, so the work goes to
    forked processes: each child checks one contiguous share and writes one
    byte per tx to a pipe, and the parent checks the first share itself. A
    child's bytes count only if it exited 0 and wrote exactly its share;
    any other outcome, and any failing tx, leaves those ids unrecorded. A
    failing tx in the parent's share fails the chain at or before it, so
    the parent stops there and kills the children. The parent checks every
    tx itself, and forks nothing, when fewer than two workers would have
    ``MIN_TXS_PER_WORKER`` txs each, when the platform cannot fork, or while
    another thread is alive (a child forked from a threaded process can
    deadlock).
    """
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        workers = max(1, min(len(os.sched_getaffinity(0)), len(txs) // MIN_TXS_PER_WORKER))
    bounds = [-(-len(txs) * k // workers) for k in range(workers + 1)]
    children, passed = [], 0
    try:
        for start, end in zip(bounds[1:], bounds[2:]):
            try:
                children.append((start, end, *_fork_checker(txs[start:end], signer)))
            except OSError:  # out of processes or descriptors
                pass
        for tx in txs[: bounds[1]]:
            if verify_tx(tx, record, signer) is not None:
                for _, _, pid, _ in children:
                    os.kill(pid, signal.SIGKILL)  # not yet reaped, so still ours
                break
            passed += 1
    finally:
        results = [(start, end, _reap(pid, fd)) for start, end, pid, fd in children]
    for start, end, verdicts in results:
        if len(verdicts) == end - start:
            for tx, ok in zip(txs[start:end], verdicts):
                if ok:
                    record.add(tx.id)
                    passed += 1
    return passed == len(txs)


def _fork_checker(share: Sequence[Transaction], signer: KeyPair | None) -> tuple[int, int]:
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
            verdicts = bytes(verify_tx(tx, None, signer) is None for tx in share)
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
    if len(log_hash) != DIGEST_LEN:
        raise ValueError("log_hash must be 32 bytes")
    source = source_id.encode("utf-8")
    if len(source) > MAX_SOURCE_ID_BYTES:
        raise ValueError(f"source_id exceeds {MAX_SOURCE_ID_BYTES} bytes")
    _check_uint(capture_timestamp, 64, "capture_timestamp")
    payload = log_hash + bytes([len(source)]) + source + struct.pack(">Q", capture_timestamp)
    preamble = _encode_preamble(KIND_ANCHOR, payload, keypair.public_key)
    return AnchorTransaction(preamble + sign(keypair, preamble))


def build_registration_tx(
    new_node_pubkey: bytes,
    role: NodeRole,
    sponsor: KeyPair,
) -> RegistrationTransaction:
    """Construct and sign a registration sponsored by ``sponsor``."""
    if len(new_node_pubkey) != KEY_LEN:
        raise ValueError("new_node_pubkey must be 32 bytes")
    payload = new_node_pubkey + bytes([ROLE_TO_BYTE[role]])
    preamble = _encode_preamble(KIND_REGISTRATION, payload, sponsor.public_key)
    return RegistrationTransaction(preamble + sign(sponsor, preamble))


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
    """The fields ``_HEADER`` packs; a header exists only with each field
    within its width."""

    prev_hash: bytes
    merkle_root: bytes
    timestamp: int
    difficulty: int
    nonce: int
    version: int = BLOCK_VERSION

    def __post_init__(self) -> None:
        _check_uint(self.version, 8, "version")
        # ``32s`` would pad a short digest, or cut a long one, silently.
        if len(self.prev_hash) != DIGEST_LEN or len(self.merkle_root) != DIGEST_LEN:
            raise ValueError(f"prev_hash and merkle_root must be {DIGEST_LEN} bytes")
        _check_uint(self.timestamp, 64, "timestamp")
        _check_uint(self.difficulty, 8, "difficulty")
        _check_uint(self.nonce, 64, "nonce")


def header_bytes(header: BlockHeader) -> bytes:
    return _HEADER.pack(
        header.version,
        header.prev_hash,
        header.merkle_root,
        header.timestamp,
        header.difficulty,
        header.nonce,
    )


def decode_header(raw: bytes) -> BlockHeader:
    if len(raw) != HEADER_LEN:
        raise ValueError(f"header must be {HEADER_LEN} bytes, got {len(raw)}")
    version, prev_hash, root, timestamp, difficulty, nonce = _HEADER.unpack(raw)
    return BlockHeader(prev_hash, root, timestamp, difficulty, nonce, version)


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
    txids = [raw[i : i + DIGEST_LEN] for i in range(start, end, DIGEST_LEN)]
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
    lowercase hex. ``block_from_json_line`` rejects any other rendering."""
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


def block_from_json_line(line: str, line_no: int = 0) -> Block:
    """Parse one chain-file line into the block it renders.

    One check makes the line canonical: the block must render back to
    exactly ``line``. The re-render rejects any other key set, key order,
    spacing, escape or hex case, and a stated block_hash that is not the
    header's; the header and tx constructors reject any field outside its
    layout.
    """
    try:
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ValueError("unexpected fields")
        header = BlockHeader(
            prev_hash=bytes.fromhex(obj["prev_hash"]),
            merkle_root=bytes.fromhex(obj["merkle_root"]),
            timestamp=obj["timestamp"],
            difficulty=obj["difficulty"],
            nonce=obj["nonce"],
            version=obj["version"],
        )
        block = Block(header, tuple(decode_tx(bytes.fromhex(item)) for item in obj["txs"]))
        if block_to_json_line(block) != line:
            raise ValueError("non-canonical block line")
    except KeyError:
        raise ChainFileError(line_no, "unexpected fields") from None
    except (ValueError, TypeError, RecursionError) as exc:
        raise ChainFileError(line_no, str(exc)) from None
    return block


# ---------------------------------------------------------------------------
# Proof-of-work target
# ---------------------------------------------------------------------------


def leading_zero_bits(digest: bytes) -> int:
    """Count zero bits from the MSB of byte 0 downward."""
    return len(digest) * 8 - int.from_bytes(digest, "big").bit_length()


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
    anchor_index: dict[bytes, list[tuple[int, int]]] = field(default_factory=dict)
    tx_ids: set[Digest] = field(default_factory=set)
    heights: dict[Digest, int] = field(default_factory=dict)  # block hash -> height

    @property
    def height(self) -> int:
        return len(self.blocks)

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    def anchor_locations(self, log_hash: bytes) -> list[tuple[int, int]]:
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

    def connect_run(
        self,
        blocks: Sequence[Block],
        verified: VerifiedTxs | None = None,
        can_win: Callable[[int, Digest], bool] | None = None,
        signer: KeyPair | None = None,
    ) -> str | None:
        """``connect`` each of ``blocks`` up to the first invalid one; return
        its reason tag, or None. Every rule but ``verify_tx`` runs first;
        then, unless a rule broke and the valid prefix fails ``can_win(height,
        tip hash)``, the prefix's txs that ``verified`` lacks go to
        ``verify_txs_forked`` with ``signer``. After a failing tx the run is
        connected again from its parent, and a block that broke a rule is
        checked again, so the chain ends as a serial ``connect`` ends."""
        start = self.height
        reason = self._connect_each(blocks, _EveryId(0))
        if reason is not None and can_win is not None and not can_win(self.height, self.tip.hash):
            return reason
        if verified is None:
            verified = VerifiedTxs(len(self.tx_ids))
        txs = [
            tx for block in self.blocks[start:] for tx in block.transactions if tx.id not in verified
        ]
        if not verify_txs_forked(txs, verified, signer):
            while self.height > start:
                self.disconnect()
        return self._connect_each(blocks[self.height - start :], verified)

    def _connect_each(self, blocks: Sequence[Block], verified: VerifiedTxs) -> str | None:
        """Check and ``advance`` onto each block in turn; the reason tag of
        the first invalid one, or None."""
        for block in blocks:
            if (reason := validate_block(block, self, verified)) is not None:
                return reason
            self.advance(block)
        return None

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
    registered_nodes: Mapping[bytes, NodeRole],
    genesis: bool = False,
) -> str | None:
    """Registry rules, applied at two sites: ``validate_block`` to each tx of
    a block, and ``Mempool.add`` to each tx a pool admits.

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


def validate_block(
    block: Block, parent: Chain, verified: VerifiedTxs | None = None
) -> str | None:
    """Check one block against its parent chain's state.

    ``parent`` is empty only for the genesis block. Checks run in a fixed
    order and the first failure's reason tag is returned (per tx,
    ``verify_tx`` before registry rules, each registration admitted for the
    txs after it; a tx id already on ``parent`` or earlier in the block
    after both). ``parent`` is not modified; ``verified`` is passed to
    ``verify_tx``.
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
    for tx in block.transactions:
        reason = verify_tx(tx, verified) or tx_context_reason(tx, registry, not parent.blocks)
        if reason is not None:
            return reason
        if isinstance(tx, RegistrationTransaction) and tx.role is not None:
            registry[tx.new_node_pubkey] = tx.role
    if len(set(block.tx_ids)) < len(block.tx_ids) or not parent.tx_ids.isdisjoint(block.tx_ids):
        return "duplicate-tx"
    return None


class _EveryId(VerifiedTxs):
    """A stand-in record that holds every id: a connect with it skips
    ``verify_tx`` and checks every other rule."""

    def __contains__(self, txid: Digest) -> bool:
        return True


def validate_chain(
    blocks: list[Block], trusted: int = 0, signer: KeyPair | None = None
) -> Chain:
    """The ``Chain.connect_run`` of ``blocks``, with ``signer``, on an empty
    chain; ChainValidationError at the first failing 1-based height.

    The caller may vouch that every tx of the first ``trusted`` blocks
    passes ``verify_tx`` (a checkpoint of their tip's hash). The vouching
    holds only when every rule passes up to that tip, so that the tip's hash
    commits to each of those txs' bytes: then their checks are skipped, and
    otherwise the call checks as with no prefix trusted.
    """
    if not blocks:
        raise ChainValidationError(0, "empty-chain")
    chain = Chain(blocks=[])
    if trusted and chain.connect_run(blocks[:trusted], _EveryId(0)) is not None:
        chain = Chain(blocks=[])
    reason = chain.connect_run(blocks[chain.height :], signer=signer)
    if reason is not None:
        raise ChainValidationError(chain.height + 1, reason)
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
