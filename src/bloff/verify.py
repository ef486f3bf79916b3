"""Verification of presented logs against the chain.

A presented log is accepted when its SHA-256 digest is anchored on the best
chain with enough confirmations, and rejected otherwise. The investigator
path (``verify_log``) uses the replay-built anchor index; the court path
(``court_recheck``) deliberately shares nothing with it and scans the blocks
directly, so the two verdicts are computed independently.

Everything here is a pure read of a validated Chain; nothing here moves it.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

from .crypto import (
    KEY_LEN,
    SIGNATURE_LEN,
    Digest,
    KeyPair,
    hex_to_bytes,
    sha256_digest,
    sign,
    verify_signature,
)
from .ingest import canonicalize_record
from .ledger import (
    AnchorTransaction,
    BlockHeader,
    Chain,
    merkle_leaf,
    merkle_levels,
    merkle_node,
)

OUTCOME_ACCEPTED = "Accepted"
OUTCOME_REJECTED = "Rejected"

REASON_NOT_FOUND = "not-found"
REASON_INSUFFICIENT = "insufficient-confirmations"


class ProofError(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class AnchorMatch:
    """One on-chain anchor of the presented log's digest."""

    height: int
    tx_id: Digest
    submitter_pubkey: bytes
    capture_timestamp: int
    confirmations: int


@dataclass(frozen=True)
class Verdict:
    outcome: str
    computed_hash: Digest
    matches: tuple[AnchorMatch, ...] = ()
    reason: str | None = None

    @property
    def accepted(self) -> bool:
        return self.outcome == OUTCOME_ACCEPTED

    def to_dict(self) -> dict:
        out: dict = {"outcome": self.outcome, "computed_hash": self.computed_hash.hex()}
        if self.accepted:
            out["matches"] = [
                {
                    "height": m.height,
                    "tx_id": m.tx_id.hex(),
                    "submitter_pubkey": m.submitter_pubkey.hex(),
                    "capture_timestamp": m.capture_timestamp,
                    "confirmations": m.confirmations,
                }
                for m in self.matches
            ]
        else:
            out["reason"] = self.reason
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


def _verdict_from_matches(
    computed: Digest,
    matches: list[AnchorMatch],
    min_confirmations: int,
) -> Verdict:
    sufficient = tuple(m for m in matches if m.confirmations >= min_confirmations)
    if sufficient:
        return Verdict(outcome=OUTCOME_ACCEPTED, computed_hash=computed, matches=sufficient)
    reason = REASON_INSUFFICIENT if matches else REASON_NOT_FOUND
    return Verdict(outcome=OUTCOME_REJECTED, computed_hash=computed, reason=reason)


def verify_log(
    log: bytes,
    chain: Chain,
    min_confirmations: int = 1,
    expected_submitter: bytes | None = None,
) -> Verdict:
    """Look the presented log's digest up in the anchor index.

    The log is canonicalized with the same rule as ingestion, so a trailing
    newline never causes a spurious rejection. An empty log is an error,
    distinct from a Rejected verdict. ``expected_submitter`` optionally
    restricts matches to anchors from one key.
    """
    if min_confirmations < 1:
        raise ValueError("min_confirmations must be >= 1")
    computed = sha256_digest(canonicalize_record(log))
    matches = []
    for height, index in chain.anchor_locations(computed):
        tx = chain.blocks[height - 1].transactions[index]
        assert isinstance(tx, AnchorTransaction)
        if expected_submitter is not None and tx.submitter_pubkey != expected_submitter:
            continue
        matches.append(
            AnchorMatch(
                height=height,
                tx_id=tx.id,
                submitter_pubkey=tx.submitter_pubkey,
                capture_timestamp=tx.capture_timestamp,
                confirmations=chain.height - height + 1,
            )
        )
    return _verdict_from_matches(computed, matches, min_confirmations)


def court_recheck(
    log: bytes,
    chain: Chain,
    min_confirmations: int = 1,
    expected_submitter: bytes | None = None,
) -> Verdict:
    """Same contract as ``verify_log`` via an independent linear block scan."""
    if min_confirmations < 1:
        raise ValueError("min_confirmations must be >= 1")
    computed = sha256_digest(canonicalize_record(log))
    matches = []
    for index, block in enumerate(chain.blocks):
        height = index + 1
        for tx in block.transactions:
            if not isinstance(tx, AnchorTransaction) or tx.log_hash != computed:
                continue
            if expected_submitter is not None and tx.submitter_pubkey != expected_submitter:
                continue
            matches.append(
                AnchorMatch(
                    height=height,
                    tx_id=tx.id,
                    submitter_pubkey=tx.submitter_pubkey,
                    capture_timestamp=tx.capture_timestamp,
                    confirmations=len(chain.blocks) - height + 1,
                )
            )
    return _verdict_from_matches(computed, matches, min_confirmations)


# ---------------------------------------------------------------------------
# Merkle inclusion proofs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InclusionProof:
    """Sibling path from a transaction leaf up to a block's Merkle root."""

    tx_id: Digest
    block_height: int
    merkle_root: Digest
    path: tuple[tuple[str, Digest], ...]  # ("left" | "right", sibling digest)

    def to_dict(self) -> dict:
        return {
            "tx_id": self.tx_id.hex(),
            "block_height": self.block_height,
            "merkle_root": self.merkle_root.hex(),
            "path": [{"side": side, "hash": digest.hex()} for side, digest in self.path],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, obj: dict) -> "InclusionProof":
        path = []
        for entry in obj["path"]:
            if entry["side"] not in ("left", "right"):
                raise ValueError("bad proof side")
            path.append((entry["side"], Digest.from_hex(entry["hash"])))
        return cls(
            tx_id=Digest.from_hex(obj["tx_id"]),
            block_height=int(obj["block_height"]),
            merkle_root=Digest.from_hex(obj["merkle_root"]),
            path=tuple(path),
        )


def make_inclusion_proof(chain: Chain, height: int, txid: Digest) -> InclusionProof:
    """Build the sibling path for ``txid`` inside the block at ``height``."""
    if not 1 <= height <= chain.height:
        raise ProofError("not-in-block")
    block = chain.blocks[height - 1]
    try:
        index = block.tx_ids.index(txid)
    except ValueError:
        raise ProofError("not-in-block") from None

    path: list[tuple[str, Digest]] = []
    for level in merkle_levels(block.tx_ids)[:-1]:
        sibling = index ^ 1
        side = "left" if sibling < index else "right"
        path.append((side, level[sibling]))
        index //= 2
    return InclusionProof(
        tx_id=txid,
        block_height=height,
        merkle_root=block.header.merkle_root,
        path=tuple(path),
    )


def verify_inclusion_proof(proof: InclusionProof, header: BlockHeader) -> bool:
    """Fold the leaf along the path and compare against the header's root."""
    if proof.merkle_root != header.merkle_root:
        return False
    current = merkle_leaf(proof.tx_id)
    for side, sibling in proof.path:
        if side == "left":
            current = merkle_node(sibling, current)
        elif side == "right":
            current = merkle_node(current, sibling)
        else:
            return False
    return current == header.merkle_root


# ---------------------------------------------------------------------------
# Chain-of-custody attestations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CustodyAttestation:
    """A holder's signed receipt for a log digest at a point in time."""

    log_hash: Digest
    holder_pubkey: bytes
    received_timestamp: int
    signature: bytes

    def to_dict(self) -> dict:
        return {
            "log_hash": self.log_hash.hex(),
            "holder_pubkey": self.holder_pubkey.hex(),
            "received_timestamp": self.received_timestamp,
            "signature": self.signature.hex(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


def attestation_message(log_hash: Digest, holder_pubkey: bytes, received_timestamp: int) -> bytes:
    return bytes(log_hash) + holder_pubkey + struct.pack(">Q", received_timestamp)


def make_attestation(log_hash: Digest, holder: KeyPair, received_timestamp: int) -> CustodyAttestation:
    signature = sign(holder, attestation_message(log_hash, holder.public_key, received_timestamp))
    return CustodyAttestation(
        log_hash=log_hash,
        holder_pubkey=holder.public_key,
        received_timestamp=received_timestamp,
        signature=signature,
    )


def parse_attestation_line(line: str) -> CustodyAttestation:
    """Raises ValueError, among others, when ``received_timestamp`` is not a
    JSON integer (a bool is not one) from 0 to 2**64 - 1."""
    obj = json.loads(line)
    timestamp = obj["received_timestamp"]
    if type(timestamp) is not int or not 0 <= timestamp < 1 << 64:
        raise ValueError(f"received_timestamp is not a u64: {timestamp!r}")
    return CustodyAttestation(
        log_hash=Digest.from_hex(obj["log_hash"]),
        holder_pubkey=hex_to_bytes(obj["holder_pubkey"], KEY_LEN),
        received_timestamp=timestamp,
        signature=hex_to_bytes(obj["signature"], SIGNATURE_LEN),
    )


@dataclass(frozen=True)
class HopReport:
    index: int
    passed: bool
    reason: str | None = None


@dataclass(frozen=True)
class CustodyReport:
    hops: tuple[HopReport, ...]
    verdict: Verdict

    @property
    def overall_pass(self) -> bool:
        return all(h.passed for h in self.hops) and self.verdict.accepted

    def to_dict(self) -> dict:
        return {
            "overall": "pass" if self.overall_pass else "fail",
            "hops": [
                {"index": h.index, "passed": h.passed, "reason": h.reason} for h in self.hops
            ],
            "verdict": self.verdict.to_dict(),
        }


def verify_custody(
    log: bytes,
    attestations: list[CustodyAttestation | None],
    chain: Chain,
    min_confirmations: int = 1,
    expected_submitter: bytes | None = None,
) -> CustodyReport:
    """Check every custody hop against the presented log and the chain.

    A hop passes when its attested digest matches the canonicalized log, its
    signature verifies and its timestamp does not precede the previous hop's.
    Malformed entries (None placeholders from file parsing) fail their hop;
    later hops are still evaluated. Overall pass additionally requires the
    log itself to verify as anchored (by ``expected_submitter``, if given).
    """
    computed = sha256_digest(canonicalize_record(log))
    hops = []
    previous_ts: int | None = None
    for index, att in enumerate(attestations):
        if att is None:
            hops.append(HopReport(index=index, passed=False, reason="malformed"))
            continue
        reason = None
        if att.log_hash != computed:
            reason = "hash-mismatch"
        elif not verify_signature(
            att.holder_pubkey,
            attestation_message(att.log_hash, att.holder_pubkey, att.received_timestamp),
            att.signature,
        ):
            reason = "bad-signature"
        elif previous_ts is not None and att.received_timestamp < previous_ts:
            reason = "timestamp-regression"
        hops.append(HopReport(index=index, passed=reason is None, reason=reason))
        previous_ts = att.received_timestamp
    verdict = verify_log(log, chain, min_confirmations, expected_submitter)
    return CustodyReport(hops=tuple(hops), verdict=verdict)
