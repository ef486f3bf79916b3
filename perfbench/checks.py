"""Output checks computed apart from the program.

The chain file is parsed here by the normative byte layout with ``json``,
``struct`` and ``hashlib`` only; digests, Merkle roots, verdicts and proofs
are recomputed from those bytes. Every check returns a list of problems,
empty when the output is right, so a run counts an op with any problem as
failed and the self-test can plant wrong answers.

Layouts (big-endian integers):
  header       version u8 | prev_hash 32 | merkle_root 32 | timestamp u64
               | difficulty u8 | nonce u64
  tx           version u8 | kind u8 | payload | submitter_pubkey 32 | signature 64
  anchor       payload = log_hash 32 | source_len u8 | source | capture_ts u64
  registration payload = new_pubkey 32 | role u8
  Merkle leaf  sha256(0x00 | tx_id), node sha256(0x01 | left | right), an
               odd level repeats its last node; tx_id = sha256(tx bytes)
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections import Counter
from dataclasses import dataclass

KIND_ANCHOR = 0x01
ZERO_HASH = bytes(32)


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class ParsedTx:
    txid: bytes
    kind: int
    submitter: bytes
    log_hash: bytes | None = None
    capture_ts: int | None = None


@dataclass(frozen=True)
class ParsedBlock:
    height: int
    stated_hash: bytes
    computed_hash: bytes
    prev_hash: bytes
    merkle_root: bytes
    difficulty: int
    txs: tuple[ParsedTx, ...]


def parse_tx(raw: bytes) -> ParsedTx:
    kind = raw[1]
    submitter = raw[-96:-64]
    if kind == KIND_ANCHOR:
        source_len = raw[34]
        (capture_ts,) = struct.unpack(">Q", raw[35 + source_len:43 + source_len])
        if len(raw) != 43 + source_len + 96:
            raise ValueError("anchor tx length does not match its layout")
        return ParsedTx(sha256(raw), kind, submitter, raw[2:34], capture_ts)
    return ParsedTx(sha256(raw), kind, submitter)


def parse_chain_text(text: str) -> list[ParsedBlock]:
    """Parse a chain file: one JSON object per LF-terminated line."""
    if not text.endswith("\n"):
        raise ValueError("chain file does not end with a newline")
    blocks = []
    for height, line in enumerate(text.split("\n")[:-1], start=1):
        obj = json.loads(line)
        header = (
            bytes([obj["version"]])
            + bytes.fromhex(obj["prev_hash"])
            + bytes.fromhex(obj["merkle_root"])
            + struct.pack(">Q", obj["timestamp"])
            + bytes([obj["difficulty"]])
            + struct.pack(">Q", obj["nonce"])
        )
        blocks.append(
            ParsedBlock(
                height=height,
                stated_hash=bytes.fromhex(obj["block_hash"]),
                computed_hash=sha256(header),
                prev_hash=bytes.fromhex(obj["prev_hash"]),
                merkle_root=bytes.fromhex(obj["merkle_root"]),
                difficulty=obj["difficulty"],
                txs=tuple(parse_tx(bytes.fromhex(h)) for h in obj["txs"]),
            )
        )
    return blocks


def parse_chain_file(path: str) -> tuple[list[ParsedBlock], list[str]]:
    """The parsed chain, or no blocks and the reason it does not parse."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_chain_text(fh.read()), []
    except (ValueError, KeyError, TypeError, IndexError, struct.error) as exc:
        return [], [f"chain file does not parse: {exc!r}"]


def merkle_root_of(txids: list[bytes]) -> bytes:
    level = [sha256(b"\x00" + t) for t in txids]
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [sha256(b"\x01" + level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def leading_zero_bits(digest: bytes) -> int:
    value = int.from_bytes(digest, "big")
    return len(digest) * 8 - value.bit_length()


def chain_problems(blocks: list[ParsedBlock]) -> list[str]:
    """Linkage, stated hashes, proof of work and Merkle roots."""
    problems = []
    prev = ZERO_HASH
    for block in blocks:
        if block.prev_hash != prev:
            problems.append(f"block {block.height}: does not link to its parent")
        if block.stated_hash != block.computed_hash:
            problems.append(f"block {block.height}: stated hash is not the header hash")
        if leading_zero_bits(block.computed_hash) < block.difficulty:
            problems.append(f"block {block.height}: hash misses its stated difficulty")
        if merkle_root_of([tx.txid for tx in block.txs]) != block.merkle_root:
            problems.append(f"block {block.height}: Merkle root does not match its txs")
        prev = block.computed_hash
    return problems


def anchored_digests(blocks: list[ParsedBlock]) -> list[bytes]:
    return [tx.log_hash for b in blocks for tx in b.txs if tx.kind == KIND_ANCHOR]


def exactly_once_problems(found: list[bytes], expected: list[bytes]) -> list[str]:
    """Each expected digest appears once in ``found``, and nothing else does."""
    counts = Counter(found)
    problems = []
    missing = sum(1 for d in expected if counts[d] == 0)
    repeated = sum(1 for d in set(expected) if counts[d] > 1)
    extra = len(set(counts) - set(expected))
    if missing:
        problems.append(f"{missing} record digests are not anchored")
    if repeated:
        problems.append(f"{repeated} record digests are anchored more than once")
    if extra:
        problems.append(f"{extra} anchored digests belong to no submitted record")
    return problems


def records_of_log(data: bytes) -> list[bytes]:
    """Records of a log file: one trailing LF or CRLF stripped, blank lines skipped."""
    pieces = data.split(b"\n")
    records = []
    for i, piece in enumerate(pieces):
        terminated = i < len(pieces) - 1
        if terminated and piece.endswith(b"\r"):
            piece = piece[:-1]
        if piece:
            records.append(piece)
    return records


def canonical_log(data: bytes) -> bytes:
    """A presented log as one record: one trailing LF or CRLF stripped."""
    if data.endswith(b"\r\n"):
        return data[:-2]
    if data.endswith(b"\n"):
        return data[:-1]
    return data


# ---------------------------------------------------------------------------
# verify: expected verdicts, proofs and custody reports
# ---------------------------------------------------------------------------


def anchor_index(blocks: list[ParsedBlock]) -> dict[bytes, list[tuple[int, ParsedTx]]]:
    index: dict[bytes, list[tuple[int, ParsedTx]]] = {}
    for block in blocks:
        for tx in block.txs:
            if tx.kind == KIND_ANCHOR:
                index.setdefault(tx.log_hash, []).append((block.height, tx))
    return index


def expected_verdict(index, chain_height: int, log: bytes, min_conf: int) -> dict:
    """The verdict JSON object the investigator path must print."""
    digest = sha256(canonical_log(log))
    matches = [
        {
            "height": height,
            "tx_id": tx.txid.hex(),
            "submitter_pubkey": tx.submitter.hex(),
            "capture_timestamp": tx.capture_ts,
            "confirmations": chain_height - height + 1,
        }
        for height, tx in index.get(digest, ())
    ]
    sufficient = [m for m in matches if m["confirmations"] >= min_conf]
    if sufficient:
        return {"outcome": "Accepted", "computed_hash": digest.hex(), "matches": sufficient}
    reason = "insufficient-confirmations" if matches else "not-found"
    return {"outcome": "Rejected", "computed_hash": digest.hex(), "reason": reason}


def expected_custody(verdict: dict, hop_reasons: list[str | None]) -> dict:
    passed = verdict["outcome"] == "Accepted" and all(r is None for r in hop_reasons)
    return {
        "overall": "pass" if passed else "fail",
        "hops": [
            {"index": i, "passed": r is None, "reason": r} for i, r in enumerate(hop_reasons)
        ],
        "verdict": verdict,
    }


def proof_problems(proof: dict, blocks: list[ParsedBlock], verdict: dict) -> list[str]:
    """An inclusion proof names the first match and folds to its block's root."""
    first = verdict["matches"][0]
    if proof.get("tx_id") != first["tx_id"] or proof.get("block_height") != first["height"]:
        return ["proof is not for the first match"]
    root = blocks[first["height"] - 1].merkle_root
    current = sha256(b"\x00" + bytes.fromhex(proof["tx_id"]))
    for step in proof["path"]:
        sibling = bytes.fromhex(step["hash"])
        if step["side"] == "left":
            current = sha256(b"\x01" + sibling + current)
        elif step["side"] == "right":
            current = sha256(b"\x01" + current + sibling)
        else:
            return ["proof has a step with no side"]
    if current != root or proof.get("merkle_root") != root.hex():
        return ["proof does not fold to the block's Merkle root"]
    return []


def last_json_line(stdout: str):
    """The object on the last printed line, or None."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def verify_call_problems(
    expected: dict,
    exit_code: int,
    printed,
    blocks: list[ParsedBlock],
    proof_text: str | None = None,
    want_proof: bool = False,
) -> list[str]:
    """Exit code and printed verdict (or custody report) of one verify call."""
    if "overall" in expected:
        accepted = expected["overall"] == "pass"
        verdict = expected["verdict"]
    else:
        accepted = expected["outcome"] == "Accepted"
        verdict = expected
    problems = []
    if exit_code != (0 if accepted else 1):
        problems.append(f"exit code {exit_code}, expected {0 if accepted else 1}")
    if printed != expected:
        problems.append("printed verdict differs from the expected verdict")
    if want_proof and verdict["outcome"] == "Accepted":
        if proof_text is None:
            problems.append("no inclusion proof was written")
        else:
            try:
                problems.extend(proof_problems(json.loads(proof_text), blocks, verdict))
            except (ValueError, KeyError, TypeError, IndexError):
                problems.append("inclusion proof has another form")
    return problems


# ---------------------------------------------------------------------------
# simnet
# ---------------------------------------------------------------------------


def simnet_problems(report: dict, node_digests: dict[str, list[bytes]], expected: list[bytes]) -> list[str]:
    """The scenario converged, and every node holds each record once."""
    problems = [] if report.get("converged") else ["scenario did not converge"]
    for node_id, found in sorted(node_digests.items()):
        problems.extend(f"{node_id}: {p}" for p in exactly_once_problems(found, expected))
    return problems
