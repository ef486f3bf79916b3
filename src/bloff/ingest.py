"""Log ingestion: read records, canonicalize, hash and sign anchors.

The anchored bytes are the producer's bytes. Canonicalization strips exactly
one trailing line terminator (LF or CRLF) and nothing else, so a log handed
over later with or without its final newline still verifies. Raw record
bytes never leave this layer: only their 32-byte digests travel onward.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Iterator

from .crypto import Digest, KeyPair, sha256_digest
from .ledger import AnchorTransaction, build_anchor_tx

MAX_RECORD_BYTES = 65_536


class RecordError(ValueError):
    """A line that cannot become a record; ``reason`` is a stable tag."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class SourceError(Exception):
    """A log source that cannot be read, carrying the offending path."""


def canonicalize_record(raw: bytes) -> bytes:
    """Strip one trailing LF or CRLF; perform no other normalization."""
    if raw.endswith(b"\r\n"):
        raw = raw[:-2]
    elif raw.endswith(b"\n"):
        raw = raw[:-1]
    if not raw:
        raise RecordError("empty-record")
    if len(raw) > MAX_RECORD_BYTES:
        raise RecordError("oversize")
    return raw


@dataclass(frozen=True)
class LogRecord:
    """One canonicalized log entry with its provenance stamp."""

    raw: bytes
    source_id: str
    capture_timestamp: int

    def __post_init__(self) -> None:
        if not self.raw or len(self.raw) > MAX_RECORD_BYTES:
            raise ValueError("record must be 1..65536 bytes")

    @property
    def log_hash(self) -> Digest:
        return sha256_digest(self.raw)


@dataclass(frozen=True)
class LogSource:
    kind: str  # "file" | "standard-input"
    source_id: str
    location: str | None = None


def _records_from_lines(lines, source_id: str, clock) -> Iterator[LogRecord]:
    for line in lines:
        if line in (b"", b"\n", b"\r\n"):
            # Blank lines carry no evidence; skip rather than abort the run.
            continue
        raw = canonicalize_record(line)
        yield LogRecord(raw=raw, source_id=source_id, capture_timestamp=int(clock()))


def ingest(source: LogSource, clock=time.time) -> Iterator[LogRecord]:
    """Yield records from a source in order, stamped with wall-clock time.

    File content is read as raw bytes; invalid UTF-8 passes through intact.
    A final line without a terminator still yields a record. Oversize lines
    raise; blank lines are skipped.
    """
    if source.kind == "file":
        if source.location is None or not os.path.exists(source.location):
            raise SourceError(f"unreadable log source: {source.location}")
        with open(source.location, "rb") as fh:
            yield from _records_from_lines(fh, source.source_id, clock)
    elif source.kind == "standard-input":
        yield from _records_from_lines(sys.stdin.buffer, source.source_id, clock)
    else:
        raise SourceError(f"unknown source kind: {source.kind}")


def build_anchor_for_record(record: LogRecord, keypair: KeyPair) -> AnchorTransaction:
    return build_anchor_tx(
        log_hash=record.log_hash,
        source_id=record.source_id,
        capture_timestamp=record.capture_timestamp,
        keypair=keypair,
    )
