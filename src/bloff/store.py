"""Append-only chain persistence as JSON Lines, one block per line.

The main file always holds exactly the chain its owner moves, and blocks a
reorg displaced go to a ``forks.jsonl`` sidecar, so the audit artifact stays
linear and human-inspectable. ``BlockStore.sync`` appends the blocks gained
on the file's tip, flushed and fsynced; any other move rewrites through a
temp file and an atomic rename, so a crash leaves the old or the new file.
A rename, or an append that creates its file, fsyncs the directory too, so
the new directory entry survives a crash.

Indexes are in-memory only. ``load_chain`` is the one replay; after it,
``BlockStore.append_block`` checks only the new block, connecting the
loaded chain onto it in place. A reader's load of the exact bytes its own
checkpoint names is a ``ChainView``, which parses only the blocks read.

A chain file has one writer at a time: each holds ``writer_lock`` on it,
and a second writer fails at once instead of waiting.

A writer's key keeps a ``Checkpoint`` sidecar, ``<chain>.checked.<node_id>``:
the height and hash of the tip that key's holder last validated on the file,
and the length and SHA-256 of the file it read, MAC'd with a key derived
from its secret key. A store opened with that key keeps it: the open names
the loaded tip and file, and each ``sync`` the tip it wrote (with no file
bytes). ``verify`` and ``inspect`` keep one in the OS user's cache, under a
reader key; their load of the exact bytes the line names is the view, which
checks no rule. Any other load given a checkpoint whose block sits at its
height on the file skips the signature checks at or below it, and checks
every other rule on every block; above it, the key's own txs are checked by
signing them again and all others are verified. Deleting the sidecar is
always safe and costs one full check. ``court_recheck`` and a fetched chain
never use one, nor a view.
"""

from __future__ import annotations

import bisect
import fcntl
import hashlib
import hmac
import json
import os
import re
from collections.abc import Sequence
from contextlib import contextmanager

from .crypto import KeyPair, node_id
from .ledger import (
    AnchorTransaction,
    Block,
    Chain,
    ChainFileError,
    VerifiedTxs,
    block_from_json_line,
    block_to_json_line,
    validate_chain,
)


class StoreError(Exception):
    pass


@contextmanager
def writer_lock(path: str, create: bool = False):
    """Hold the exclusive ``flock`` on the ``<path>.lock`` sidecar of the
    chain file ``path``. Raises StoreError at once when another holder has
    it, in this process or another, and, unless the holder is to ``create``
    the chain file, before making the sidecar when the chain file is
    missing."""
    if not create and not os.path.exists(path):
        raise StoreError(f"chain file not found: {path}")
    fd = os.open(path + ".lock", os.O_RDWR | os.O_CREAT, 0o644)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise StoreError(f"chain file is locked: {path}") from None
        yield
    finally:
        os.close(fd)


# Names the MAC key's use; bump it when a load comes to refuse a file it
# passed before, so that no older checkpoint vouches for such a file.
_CHECKPOINT_TAG = b"bloff chain checkpoint v2\x00"

_NO_FILE = (0, hashlib.sha256().digest())  # what a sync names: no chain file is empty


class Checkpoint:
    """The sidecar of one key on one chain file, ``path`` or else
    ``<chain>.checked.<node_id>``: one ASCII line, the height and hash of the
    tip the key's holder validated, the length and SHA-256 of the file it
    validated, and an HMAC-SHA256 over the four, keyed by SHA-256 of a tag and
    the secret key. Only that holder can write a line that verifies, and a
    block hash commits to every tx byte at or below it, so each check it lets
    a load skip is one the holder already made on the same bytes. A missing,
    torn, foreign or stale sidecar names nothing, which costs a full check and
    never changes a verdict."""

    def __init__(self, chain_path: str, keypair: KeyPair, path: str | None = None):
        self.path = path or f"{chain_path}.checked.{node_id(keypair.public_key)}"
        self.keypair = keypair
        self._key = hashlib.sha256(_CHECKPOINT_TAG + keypair.secret_key).digest()
        self.named, self.filed = self._read() or (None, None)  # (height, tip), (length, SHA-256)

    def _line(self, height: int, tip_hash: bytes, filed: tuple[int, bytes]) -> str:
        body = f"{height} {tip_hash.hex()} {filed[0]} {filed[1].hex()}"
        return f"{body} {hmac.new(self._key, body.encode(), hashlib.sha256).hexdigest()}\n"

    def _read(self) -> tuple[tuple[int, bytes], tuple[int, bytes]] | None:
        """What the sidecar names, when it is the exact line this key writes
        for it."""
        try:
            with open(self.path, "rb") as fh:
                line = fh.read(256).decode("ascii")
            height, tip_hex, length, digest_hex, _ = line.split(" ")
            named = int(height), bytes.fromhex(tip_hex)
            filed = int(length), bytes.fromhex(digest_hex)
        except (OSError, ValueError):
            return None
        return (named, filed) if hmac.compare_digest(self._line(*named, filed), line) else None

    def trusted_height(self, blocks: list[Block]) -> int:
        """The named height when the named block sits there in ``blocks``,
        else 0."""
        if self.named is None:
            return 0
        height, tip_hash = self.named
        return height if 0 < height <= len(blocks) and blocks[height - 1].hash == tip_hash else 0

    def write(self, chain: Chain, filed: tuple[int, bytes] = _NO_FILE) -> None:
        """Name the tip of ``chain``, which its caller holds validated from a
        file of length and SHA-256 ``filed``, unless both are named already.
        A writer calls it under ``writer_lock``; a reader needs none, as a
        torn or interleaved line names nothing. Not fsynced, not through a
        symlink, and a failed write is not raised: a lost or torn line costs
        the next load one full check."""
        named = (chain.height, chain.tip.hash)
        if (named, filed) == (self.named, self.filed):
            return
        try:
            fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NOFOLLOW, 0o644)
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(self._line(*named, filed))
        except OSError:
            return
        self.named, self.filed = named, filed


class ChainView(Sequence):
    """A reader's chain: the bytes of a chain file that the reader's own
    checkpoint names, for ``verify_log``, ``make_inclusion_proof`` and
    ``inspect``. It is the sequence of its blocks, each parsed with the full
    ``block_from_json_line`` on first read, and equal to a list of them.
    ``blocks`` is a property, not a stored reference to itself, so a view is
    freed with its last reference, without the cyclic collector."""

    def __init__(self, data: bytes):
        self._data = data
        self._starts = [0, *(m.end() for m in re.finditer(b"\n", data))]  # line starts, then the end
        self._parsed: dict[int, Block] = {}

    blocks = property(lambda self: self)
    height = property(len)

    def __len__(self) -> int:
        return len(self._starts) - 1

    def __getitem__(self, index: int) -> Block:
        index = range(len(self))[index]
        if index not in self._parsed:
            line = self._data[self._starts[index] : self._starts[index + 1] - 1]
            self._parsed[index] = block_from_json_line(line.decode(), index + 1)
        return self._parsed[index]

    def __eq__(self, other) -> bool:
        return list(self) == other

    def anchor_locations(self, log_hash: bytes) -> list[tuple[int, int]]:
        """As ``Chain.anchor_locations``, parsing only the blocks whose line
        holds ``log_hash`` in hex, as each anchor of it must."""
        found, needle = [], log_hash.hex().encode()
        at = self._data.find(needle)
        while at >= 0:
            line = bisect.bisect_right(self._starts, at) - 1
            for index, tx in enumerate(self[line].transactions):
                if isinstance(tx, AnchorTransaction) and tx.log_hash == log_hash:
                    found.append((line + 1, index))
            at = self._data.find(needle, self._starts[line + 1])
        return found


def load_chain(path: str, checkpoint: Checkpoint | None = None, view: bool = False) -> Chain | ChainView:
    """Parse and re-validate a chain file, skipping the signature checks
    that ``checkpoint`` vouches for and checking its key's own txs by
    signing them again; then have ``checkpoint`` name the loaded tip and the
    file's length and SHA-256. With ``view``, a file of the length, digest and
    line count that ``checkpoint`` names is returned unparsed, as a view.

    Raises ChainFileError (with the 1-based line number) for lines that do
    not decode, and ChainValidationError (height, reason) when replay fails.
    """
    if not os.path.exists(path):
        raise StoreError(f"chain file not found: {path}")
    with open(path, "rb") as fh:
        data = fh.read()
    filed = len(data), hashlib.sha256(data).digest()
    if view and checkpoint and checkpoint.filed == filed and data.count(b"\n") == checkpoint.named[0]:
        return ChainView(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ChainFileError(0, f"not utf-8: {exc}") from None
    del data  # the bytes, dropped before the parse
    if not text.endswith("\n"):
        raise ChainFileError(text.count("\n") + 1, "truncated line (missing terminator)")
    blocks, start = [], 0
    while start < len(text):
        end = text.index("\n", start)
        blocks.append(block_from_json_line(text[start:end], len(blocks) + 1))
        start = end + 1
    del text  # the one decoded copy of the file, dropped before replay
    if checkpoint is None:
        return validate_chain(blocks)
    chain = validate_chain(blocks, checkpoint.trusted_height(blocks), checkpoint.keypair)
    checkpoint.write(chain, filed)
    return chain


def _write_lines(path: str, lines, replace: bool = False) -> None:
    """Append ``lines`` to ``path``, each with a newline, flushed and
    fsynced. With ``replace``, write them to a temp file instead and rename
    it over ``path`` atomically. A rename, or an append that creates
    ``path``, is made durable by fsyncing the parent directory too."""
    target = path + ".tmp" if replace else path
    new_entry = replace or not os.path.exists(path)
    with open(target, "w" if replace else "a", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    if replace:
        os.replace(target, path)
    if new_entry:
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def write_chain(path: str, blocks: list[Block]) -> None:
    """Atomically replace ``path`` with the given block sequence."""
    _write_lines(path, map(block_to_json_line, blocks), replace=True)


class BlockStore:
    """The chain file of its owner's ``Chain``, the fork sidecar and, for a
    keyed owner, its key's ``checkpoint``. The owner moves ``chain`` in
    place, by ``append_block`` or as a live node's best chain, and ``sync``
    makes the file hold it and the checkpoint name its tip."""

    def __init__(self, path: str, chain: Chain, checkpoint: Checkpoint | None = None):
        self.path = path
        self.chain = chain
        self.checkpoint = checkpoint
        self._filed = list(chain.blocks)  # the blocks the file holds
        self._torn = False  # a failed append may have left part of its lines

    @property
    def forks_path(self) -> str:
        return os.path.join(os.path.dirname(self.path) or ".", "forks.jsonl")

    @classmethod
    def open(cls, path: str, keypair: KeyPair | None = None) -> "BlockStore":
        """Load the chain file, with ``keypair``'s checkpoint when given, and
        have the checkpoint name the loaded tip. Call it under
        ``writer_lock`` when keyed."""
        checkpoint = Checkpoint(path, keypair) if keypair is not None else None
        return cls(path, load_chain(path, checkpoint), checkpoint)

    @classmethod
    def create(cls, path: str, genesis: Block) -> "BlockStore":
        if os.path.exists(path):
            raise StoreError(f"chain file already exists: {path}")
        chain = validate_chain([genesis])
        write_chain(path, [genesis])
        return cls(path, chain)

    def sync(self) -> None:
        """Make the file hold ``chain``: append what it gained on the file's
        tip, or else rewrite the file and send each filed block it no longer
        holds to the fork sidecar. A failed write leaves ``_filed`` as it
        was, so the next call retries; after a failed append, which may have
        written some or all of its lines, the retry rewrites the file. A
        failed sidecar write comes after the rewrite and is not retried, so
        no block is filed there twice. The checkpoint names the tip once
        the file holds it."""
        blocks, filed = self.chain.blocks, self._filed
        if self._torn or self.chain.heights.get(filed[-1].hash) != len(filed):
            write_chain(self.path, blocks)
            self._filed, self._torn = list(blocks), False
            for block in filed:
                if block.hash not in self.chain.heights:
                    self.record_fork(block)
        elif gained := blocks[len(filed) :]:
            try:
                _write_lines(self.path, map(block_to_json_line, gained))
            except OSError:
                self._torn = True
                raise
            filed += gained
        if self.checkpoint is not None:
            self.checkpoint.write(self.chain)

    def append_block(self, block: Block, verified: VerifiedTxs | None = None) -> None:
        """Connect ``block`` on the stored tip, then ``sync``.

        An invalid block raises ChainValidationError before anything is
        written. The line is flushed and fsynced before this returns; if the
        write raises OSError, the in-memory chain is disconnected again, so
        the failure surfaces without corrupting state. ``verified`` is
        passed on to ``Chain.connect``.
        """
        if block.header.prev_hash != self.chain.tip.hash:
            raise StoreError("block does not extend the stored tip")
        self.chain.connect(block, verified)
        try:
            self.sync()
        except OSError:
            self.chain.disconnect()
            raise

    def record_fork(self, block: Block) -> None:
        """Append a losing-fork block to the sidecar file."""
        _write_lines(self.forks_path, [block_to_json_line(block)])


# ---------------------------------------------------------------------------
# Pending-transaction sidecar for the offline CLI pipeline
# ---------------------------------------------------------------------------


def load_mempool_file(path: str) -> list[bytes | None]:
    """Read pending raw transactions (one ``{"tx": hex}`` object per line).
    A line that is not UTF-8 or JSON, or holds no ``tx`` hex, stands as
    None in its place, so one bad line does not hide the others."""
    if not os.path.exists(path):
        return []
    raw_txs: list[bytes | None] = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line in fh.read().splitlines():
            if not line:
                continue
            try:
                raw_txs.append(bytes.fromhex(json.loads(line)["tx"]))
            except (ValueError, KeyError, TypeError, RecursionError):
                raw_txs.append(None)
    return raw_txs


def _mempool_lines(raw_txs: list[bytes]):
    return (json.dumps({"tx": raw.hex()}) for raw in raw_txs)


def append_mempool_file(path: str, raw_txs: list[bytes]) -> None:
    _write_lines(path, _mempool_lines(raw_txs))


def write_mempool_file(path: str, raw_txs: list[bytes]) -> None:
    _write_lines(path, _mempool_lines(raw_txs), replace=True)
