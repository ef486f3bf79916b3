"""Canonical encodings, Merkle tree, block and chain validation."""

import dataclasses
import json
import os
import random
import struct
import threading

import pytest

from bloff import ledger
from bloff.consensus import NodeState
from bloff.crypto import Digest, sha256_digest
from bloff.ledger import (
    HEADER_LEN,
    KIND_ANCHOR,
    KIND_REGISTRATION,
    AnchorTransaction,
    Block,
    BlockHeader,
    ChainFileError,
    ChainValidationError,
    NodeRole,
    RegistrationTransaction,
    TxDecodeError,
    VerifiedTxs,
    block_from_json_line,
    block_hash,
    block_to_json_line,
    build_anchor_tx,
    build_registration_tx,
    decode_block,
    decode_blocks,
    decode_compact_block,
    decode_header,
    decode_tx,
    encode_block,
    encode_blocks,
    encode_compact_block,
    header_bytes,
    make_genesis,
    merkle_leaf,
    merkle_root,
    validate_block,
    validate_chain,
    verify_tx,
)
from conftest import GENESIS_TS, build_chain, keypair_for, with_signature
from oracles import (
    oracle_anchor_scan,
    oracle_merkle_root,
    oracle_tx_bytes,
    oracle_tx_id,
    oracle_validate_chain,
    oracle_verify_sig,
)

# Frozen on first implementation run; genesis construction is deterministic,
# so this hash must never drift.
GOLDEN_GENESIS_HASH = "328ccef7d86d8980afd8022544c1309ceed7b9585e026b260f2e805271d29090"


def make_anchor(keypair, payload=b"log line", ts=GENESIS_TS, source="dev"):
    return build_anchor_tx(sha256_digest(payload), source, ts, keypair)


def decode_error_reason(raw: bytes) -> str:
    with pytest.raises(TxDecodeError) as err:
        decode_tx(raw)
    return err.value.reason


def random_anchor(rng, keypair):
    return build_anchor_tx(
        Digest(rng.randbytes(32)),
        "".join(rng.choice("abcdefgh-") for _ in range(rng.randrange(0, 20))),
        rng.randrange(0, 2**63),
        keypair,
    )


def rebuild(tx):
    """``tx`` made again from its bytes through its kind's constructor."""
    return type(tx)(tx.raw)


class TestCanonicalTxBytes:
    def test_anchor_layout_hand_checked(self, device):
        tx = make_anchor(device, source="")
        raw = tx.raw
        assert raw[0] == 1  # version
        assert raw[1] == KIND_ANCHOR
        assert raw[2:34] == bytes(tx.log_hash)
        assert raw[34] == 0x00  # empty source_id length byte
        assert raw[35:43] == struct.pack(">Q", tx.capture_timestamp)
        assert raw[43:75] == device.public_key
        assert raw[75:] == bytes(tx.signature)

    def test_registration_layout_hand_checked(self, miner, device):
        tx = build_registration_tx(device.public_key, NodeRole.DEVICE, miner)
        raw = tx.raw
        assert raw[0] == 1
        assert raw[1] == KIND_REGISTRATION
        assert raw[2:34] == device.public_key
        assert raw[34] == 0x02  # device role byte
        assert raw[35:67] == miner.public_key
        assert len(raw) == 131

    def test_reencode_is_identical(self, rng, device):
        for _ in range(400):
            tx = random_anchor(rng, device)
            assert oracle_tx_bytes(decode_tx(tx.raw)) == tx.raw

    def test_timestamp_changes_tx_id(self, device):
        a = make_anchor(device, ts=GENESIS_TS)
        b = make_anchor(device, ts=GENESIS_TS + 1)
        assert a.id != b.id

    def test_tx_id_is_the_hash_of_its_bytes(self, miner, device):
        """Built or decoded, each kind of tx carries the hash of its full
        canonical bytes as its id."""
        registration = build_registration_tx(device.public_key, NodeRole.DEVICE, miner)
        for tx in (make_anchor(device), registration):
            decoded = decode_tx(tx.raw)
            assert tx.id == decoded.id == oracle_tx_id(tx)

    def test_signed_tx_carries_its_own_id(self, miner, device):
        """A tx's id covers its own signature: the same tx with a zero
        signature has another id."""
        registration = build_registration_tx(device.public_key, NodeRole.DEVICE, miner)
        for tx in (make_anchor(device), registration):
            placeholder = with_signature(tx, bytes(64))
            assert tx.id == oracle_tx_id(tx) != placeholder.id == oracle_tx_id(placeholder)

    def test_bytes_fields_and_identity_round_trip(self, rng, miner, device):
        """For random anchors and registrations: decoding ``raw`` gives it
        back, its kind's constructor rebuilds the same ``raw`` and ``id``
        from those bytes, ``id`` is the oracle's, ``==`` and ``hash`` follow
        the bytes, and no attribute can be assigned."""
        roles = [NodeRole.CSP_MINER, NodeRole.DEVICE, NodeRole.STAKEHOLDER]
        for _ in range(100):
            anchor = random_anchor(rng, device)
            registration = build_registration_tx(rng.randbytes(32), rng.choice(roles), miner)
            for tx in (anchor, registration):
                decoded = decode_tx(tx.raw)
                assert decoded.raw == tx.raw
                rebuilt = rebuild(tx)
                assert (rebuilt.raw, rebuilt.id) == (tx.raw, tx.id)
                assert tx.id == oracle_tx_id(tx)
                assert decoded is not tx and decoded == rebuilt == tx
                assert hash(decoded) == hash(tx) and len({decoded, rebuilt, tx}) == 1
                other = with_signature(tx, rng.randbytes(64))
                assert other != tx and len({other, tx}) == 2
                for name in ("raw", "id", "version", "signature", "submitter_pubkey", "extra"):
                    with pytest.raises(AttributeError):
                        setattr(tx, name, getattr(other, name, None))
                assert tx.raw == decoded.raw

    def test_field_equal_txs_compare_and_hash_equal(self, device):
        a = make_anchor(device)
        b = decode_tx(a.raw)
        assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1

    def test_oversize_source_id_rejected(self, device):
        with pytest.raises(ValueError):
            make_anchor(device, source="x" * 65)
        make_anchor(device, source="x" * 64)  # boundary is fine

    def test_non_ascii_source_id_roundtrips(self, device):
        tx = make_anchor(device, source="capteur-été")
        assert decode_tx(tx.raw) == tx

    def test_each_kind_is_made_only_from_bytes_that_pass_its_check(self, miner, device):
        """A tx class takes only bytes that pass its kind's structural check:
        the other kind's bytes, a truncated tx or a bad source_id raises
        TxDecodeError with the reason ``decode_tx`` gives."""
        anchor = make_anchor(device, source="").raw  # source_id length 0 at 34
        registration = build_registration_tx(device.public_key, NodeRole.DEVICE, miner).raw
        oversize = anchor[:34] + bytes([65]) + b"x" * 65 + anchor[35:]
        not_utf8 = anchor[:34] + b"\x02\xff\xfe" + anchor[35:]
        assert AnchorTransaction(anchor) == decode_tx(anchor)
        assert RegistrationTransaction(registration) == decode_tx(registration)
        cases = [
            (AnchorTransaction, registration, "bad-kind"),
            (RegistrationTransaction, anchor, "bad-kind"),
            (AnchorTransaction, anchor[:-1], "bad-length"),
            (AnchorTransaction, anchor[:1], "bad-length"),
            (RegistrationTransaction, registration + b"\x00", "bad-length"),
            (AnchorTransaction, oversize, "bad-source-id"),
            (AnchorTransaction, not_utf8, "bad-source-id"),
        ]
        for cls, raw, reason in cases:
            with pytest.raises(TxDecodeError) as err:
                cls(raw)
            assert err.value.reason == reason, (cls, raw)
            if reason != "bad-kind":
                assert decode_error_reason(raw) == reason


class TestVerifyTx:
    def test_fresh_txs_are_valid(self, miner, device):
        assert verify_tx(make_anchor(device)) is None
        assert verify_tx(build_registration_tx(device.public_key, NodeRole.DEVICE, miner)) is None

    def test_log_hash_bitflip_is_bad_signature(self, rng, device):
        for _ in range(100):
            tx = random_anchor(rng, device)
            raw = bytearray(tx.raw)
            bit = rng.randrange(2 * 8, 34 * 8)  # inside the log_hash field
            raw[bit // 8] ^= 1 << (bit % 8)
            assert verify_tx(decode_tx(bytes(raw))) == "bad-signature"

    def test_mutated_source_id_fails(self, device):
        tx = make_anchor(device, source="gateway")  # source_id at 35..42
        tampered = decode_tx(tx.raw[:35] + b"gateweb" + tx.raw[42:])
        assert verify_tx(tampered) == "bad-signature"

    def test_bad_role_tag(self, miner, device):
        good = build_registration_tx(device.public_key, NodeRole.DEVICE, miner)
        raw = bytearray(good.raw)
        raw[34] = 0x09
        assert verify_tx(decode_tx(bytes(raw))) == "bad-role-tag"

    def test_bad_version(self, device):
        raw = bytearray(make_anchor(device).raw)
        raw[0] = 2
        assert verify_tx(decode_tx(bytes(raw))) == "bad-version"

    def test_bad_kind_and_length(self, device):
        raw = bytearray(make_anchor(device).raw)
        raw[1] = 0x07
        assert decode_error_reason(bytes(raw)) == "bad-kind"
        assert decode_error_reason(make_anchor(device).raw[:-1]) == "bad-length"
        assert decode_error_reason(b"") == "bad-length"

    def test_signed_over_preamble_only(self, device):
        tx = make_anchor(device)
        assert oracle_verify_sig(tx.submitter_pubkey, tx.raw[:-64], tx.signature)
        assert not oracle_verify_sig(tx.submitter_pubkey, tx.raw, tx.signature)


class TestVerifiedTxs:
    def test_bounded_and_evicted_txs_checked_again(self, device, monkeypatch):
        """Six valid txs into a record capped at 4: it never holds more than
        4, an evicted tx costs a second check, and a tampered copy of one is
        rejected whether or not the original is recorded."""
        calls = []
        original = ledger.verify_signature
        monkeypatch.setattr(
            ledger, "verify_signature", lambda *args: calls.append(args[0]) or original(*args)
        )
        record = VerifiedTxs(4)
        txs = [make_anchor(device, bytes([i])) for i in range(6)]
        for tx in txs:
            assert verify_tx(tx, record) is None
            assert len(record) <= 4
        assert [tx.id in record for tx in txs] == [False, False, True, True, True, True]
        assert len(calls) == 6
        assert verify_tx(txs[5], record) is None
        assert len(calls) == 6
        assert verify_tx(txs[0], record) is None
        assert len(calls) == 7
        assert txs[0].id in record and len(record) == 4
        for original_tx in (txs[1], txs[5]):  # evicted, recorded
            raw = original_tx.raw  # source_id "dev" at 35..38, its length at 34
            tampered = decode_tx(raw[:34] + b"\x08tampered" + raw[38:])
            assert verify_tx(tampered, record) == "bad-signature"
            assert tampered.id not in record
        assert len(record) == 4


class TestMerkle:
    def test_single_leaf_is_the_root(self, device):
        tx = make_anchor(device)
        assert merkle_root([tx]) == merkle_leaf(tx.id)

    def test_two_leaves_hand_computed(self, device):
        t1, t2 = make_anchor(device, b"a"), make_anchor(device, b"b")
        expected = sha256_digest(
            b"\x01"
            + sha256_digest(b"\x00" + t1.id)
            + sha256_digest(b"\x00" + t2.id)
        )
        assert merkle_root([t1, t2]) == expected

    def test_odd_count_duplicates_last(self, device):
        txs = [make_anchor(device, bytes([i])) for i in range(3)]
        assert merkle_root(txs) == merkle_root(txs + [txs[-1]])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            merkle_root([])

    def test_oracle_agreement_all_small_sizes(self, rng, device):
        for size in range(1, 18):
            txs = [random_anchor(rng, device) for _ in range(size)]
            assert bytes(merkle_root(txs)) == oracle_merkle_root([bytes(t.id) for t in txs])

    def test_mutation_insertion_deletion_reorder_all_change_root(self, rng, device):
        unchanged = 0
        base = [random_anchor(rng, device) for _ in range(7)]
        base_root = merkle_root(base)
        for _ in range(1000):
            txs = list(base)
            op = rng.randrange(4)
            if op == 0:  # replace one tx
                txs[rng.randrange(len(txs))] = random_anchor(rng, device)
            elif op == 1:  # insert
                txs.insert(rng.randrange(len(txs) + 1), random_anchor(rng, device))
            elif op == 2:  # delete
                del txs[rng.randrange(len(txs))]
            else:  # reorder (swap two distinct positions)
                i = rng.randrange(len(txs) - 1)
                txs[i], txs[i + 1] = txs[i + 1], txs[i]
            if txs != base and merkle_root(txs) == base_root:
                unchanged += 1
        assert unchanged == 0


class TestBlockHashAndHeaders:
    def _header(self, **overrides):
        fields = dict(
            prev_hash=sha256_digest(b"parent"),
            merkle_root=sha256_digest(b"root"),
            timestamp=GENESIS_TS,
            difficulty=8,
            nonce=42,
        )
        fields.update(overrides)
        return BlockHeader(**fields)

    def test_layout_hand_checked(self):
        header = self._header()
        raw = header_bytes(header)
        assert len(raw) == 82
        assert raw[0] == 1
        assert raw[1:33] == bytes(header.prev_hash)
        assert raw[33:65] == bytes(header.merkle_root)
        assert raw[65:73] == struct.pack(">Q", GENESIS_TS)
        assert raw[73] == 8
        assert raw[74:82] == struct.pack(">Q", 42)
        assert block_hash(header) == sha256_digest(raw)

    def test_nonce_changes_hash(self):
        assert block_hash(self._header(nonce=1)) != block_hash(self._header(nonce=2))

    def test_identical_headers_identical_hash(self):
        assert block_hash(self._header()) == block_hash(self._header())

    def test_header_roundtrip_fuzz(self, rng):
        for _ in range(400):
            header = BlockHeader(
                prev_hash=Digest(rng.randbytes(32)),
                merkle_root=Digest(rng.randbytes(32)),
                timestamp=rng.randrange(2**64),
                difficulty=rng.randrange(256),
                nonce=rng.randrange(2**64),
            )
            assert decode_header(header_bytes(header)) == header

    def test_field_ranges_enforced(self):
        with pytest.raises(ValueError):
            self._header(difficulty=256)
        with pytest.raises(ValueError):
            self._header(timestamp=-1)
        with pytest.raises(ValueError):
            self._header(nonce=2**64)

    def test_header_exists_only_within_its_layout(self):
        """Each int field is an int, not a bool, within its width, and each
        digest is 32 bytes, which ``32s`` would otherwise pad or cut."""
        cases = [
            dict(version=True),
            dict(version=256),
            dict(difficulty=0.0),
            dict(difficulty=-1),
            dict(timestamp=1.0),
            dict(nonce=False),
            dict(prev_hash=bytes(31)),
            dict(prev_hash=bytes(33)),
            dict(merkle_root=bytes(31)),
            dict(merkle_root=bytes(33)),
        ]
        for overrides in cases:
            with pytest.raises(ValueError):
                self._header(**overrides)

class TestBlockEncoding:
    def test_block_roundtrip_fuzz(self, rng, device):
        for _ in range(250):
            txs = tuple(random_anchor(rng, device) for _ in range(rng.randrange(1, 6)))
            block = Block(
                header=BlockHeader(
                    prev_hash=Digest(rng.randbytes(32)),
                    merkle_root=merkle_root(list(txs)),
                    timestamp=rng.randrange(2**40),
                    difficulty=0,
                    nonce=rng.randrange(2**30),
                ),
                transactions=txs,
            )
            assert decode_block(encode_block(block)) == block
            line = block_to_json_line(block)
            assert block_from_json_line(line, 1) == block

    def test_blocks_sequence_roundtrip(self, miner, device):
        chain, _ = build_chain(miner, device, [b"a", b"b", b"c"])
        assert decode_blocks(encode_blocks(chain.blocks)) == chain.blocks

    def test_block_layout_hand_checked(self, miner, device):
        chain, _ = build_chain(miner, device, [b"a", b"bb", b"ccc"])
        block = chain.tip
        raws = [tx.raw for tx in block.transactions]
        assert len(raws) == 3
        expected = header_bytes(block.header) + struct.pack(">I", 3)
        for raw in raws:
            expected += struct.pack(">I", len(raw)) + raw
        assert encode_block(block) == expected

    def test_blocks_layout_hand_checked(self, miner, device):
        chain, _ = build_chain(miner, device, [b"a", b"b"], txs_per_block=1)
        raws = [encode_block(block) for block in chain.blocks]
        expected = struct.pack(">I", 4)
        for raw in raws:
            expected += struct.pack(">I", len(raw)) + raw
        assert encode_blocks(chain.blocks) == expected
        assert encode_blocks([]) == struct.pack(">I", 0)

    def test_malformed_block_bytes_rejected_with_reason(self, miner, device):
        chain, _ = build_chain(miner, device, [b"a", b"b"])
        raw = encode_block(chain.tip)
        cases = [
            (b"", "block bytes too short"),
            (raw[: HEADER_LEN + 3], "block bytes too short"),
            (raw[: HEADER_LEN + 6], "truncated block bytes"),
            (raw[:-1], "truncated block bytes"),
            (raw[:HEADER_LEN] + struct.pack(">I", 3) + raw[HEADER_LEN + 4 :], "truncated block bytes"),
            (raw + b"\x00", "trailing bytes after block"),
            (raw[:HEADER_LEN] + struct.pack(">I", 1) + raw[HEADER_LEN + 4 :], "trailing bytes after block"),
        ]
        for bad, message in cases:
            with pytest.raises(ValueError) as err:
                decode_block(bad)
            assert str(err.value) == message

    def test_compact_block_layout_hand_checked(self, miner, device):
        chain, _ = build_chain(miner, device, [b"a", b"bb", b"ccc"])
        block = chain.tip
        txids = [tx.id for tx in block.transactions]
        expected = struct.pack(">B", 1) + header_bytes(block.header) + struct.pack(">I", 3)
        expected += b"".join(txids)
        raw = encode_compact_block(block)
        assert raw == expected
        assert len(raw) == 1 + HEADER_LEN + 4 + 3 * 32
        assert decode_compact_block(raw) == (block.header, txids)

    def test_malformed_compact_block_bytes_rejected_with_reason(self, miner, device):
        chain, _ = build_chain(miner, device, [b"a", b"b"])
        raw = encode_compact_block(chain.tip)
        cases = [
            (b"", "compact block bytes too short"),
            (raw[: HEADER_LEN + 4], "compact block bytes too short"),
            (b"\x02" + raw[1:], "unknown compact block version 2"),
            (raw[:-1], "truncated compact block bytes"),
            (raw + b"\x00", "trailing bytes after compact block"),
            (raw + bytes(32), "trailing bytes after compact block"),
        ]
        for bad, message in cases:
            with pytest.raises(ValueError) as err:
                decode_compact_block(bad)
            assert str(err.value) == message

    def test_malformed_chain_bytes_rejected_with_reason(self, miner, device):
        chain, _ = build_chain(miner, device, [b"a", b"b"], txs_per_block=1)
        raw = encode_blocks(chain.blocks)
        cases = [
            (b"", "chain bytes too short"),
            (raw[:3], "chain bytes too short"),
            (raw[:6], "truncated chain bytes"),
            (raw[:-1], "truncated chain bytes"),
            (struct.pack(">I", 5) + raw[4:], "truncated chain bytes"),
            (raw + b"\x00", "trailing bytes after chain"),
            (struct.pack(">I", 3) + raw[4:], "trailing bytes after chain"),
        ]
        for bad, message in cases:
            with pytest.raises(ValueError) as err:
                decode_blocks(bad)
            assert str(err.value) == message

    def test_json_line_rejects_non_canonical_renderings(self, miner):
        """Each other rendering of the genesis line is a ChainFileError with
        its own reason, even where it parses to the same block."""
        genesis = make_genesis([miner], GENESIS_TS)
        line = block_to_json_line(genesis)
        block_from_json_line(line, 1)
        obj = json.loads(line)
        tx_hex = obj["txs"][0]
        at = tx_hex.index("a")
        reordered = json.dumps(dict(reversed(list(obj.items()))), separators=(",", ":"))
        non_canonical = "non-canonical block line"
        cases = [
            (line.replace(",", ", ", 1), non_canonical),  # cosmetic whitespace
            (line.replace('"version":1', '"version": 1'), non_canonical),
            (line[:-1] + " }", non_canonical),
            (line.replace("a", "A", 1), "unexpected fields"),  # "prev_hAsh"
            (line.replace(tx_hex, tx_hex[:at] + "\\u0061" + tx_hex[at + 1 :]), non_canonical),
            (reordered, non_canonical),
            ('{"version":1,' + line[1:], non_canonical),  # a repeated key
            (line.replace(tx_hex, tx_hex.upper()), non_canonical),
            (line.replace('"difficulty":0', '"difficulty":0.0'), "difficulty must be an unsigned 8-bit integer"),
        ]
        for bad, reason in cases:
            assert bad != line
            with pytest.raises(ChainFileError) as err:
                block_from_json_line(bad, 1)
            assert (err.value.line_no, err.value.reason) == (1, reason), bad

    def test_json_line_rejects_a_wrong_type_or_key_set(self, miner):
        """A bool field, a missing key, an extra key or a line that is no
        object is a ChainFileError naming its line."""
        line = block_to_json_line(make_genesis([miner], GENESIS_TS))
        obj = json.loads(line)
        del obj["nonce"]
        cases = [
            (line.replace('"version":1', '"version":true'), "version must be an unsigned 8-bit integer"),
            (json.dumps(obj, separators=(",", ":")), "unexpected fields"),
            (line[:-1] + ',"miner":"00"}', "non-canonical block line"),
            ("[" + line + "]", "unexpected fields"),
        ]
        for bad, reason in cases:
            with pytest.raises(ChainFileError) as err:
                block_from_json_line(bad, 7)
            assert (err.value.line_no, err.value.reason) == (7, reason), bad

    def test_json_line_nested_past_the_recursion_limit(self):
        """A line nested deeper than the interpreter's recursion limit is a
        ChainFileError naming its line, not a RecursionError."""
        with pytest.raises(ChainFileError) as err:
            block_from_json_line("[" * 200_000 + "]" * 200_000, 2)
        assert err.value.line_no == 2
        assert "recursion" in err.value.reason

    def test_json_line_rejects_wrong_block_hash_field(self, miner):
        genesis = make_genesis([miner], GENESIS_TS)
        line = block_to_json_line(genesis)
        stated = genesis.hash.hex()
        flipped = ("0" if stated[0] != "0" else "1") + stated[1:]
        with pytest.raises(Exception):
            block_from_json_line(line.replace(stated, flipped), 1)


class TestOneWayIn:
    """A tx and a chain-file line exist only in their canonical form: any
    input either is refused or reads back as exactly itself."""

    ANCHOR_FIELDS = ("log_hash", "source_id", "capture_timestamp")
    REGISTRATION_FIELDS = ("new_node_pubkey", "role_byte", "role")

    def test_decode_tx_returns_only_txs_of_exactly_its_input(self, miner, device):
        rng = random.Random(19)
        valid = [
            make_anchor(device, source="").raw,
            make_anchor(device, source="capteur-été").raw,
            build_registration_tx(device.public_key, NodeRole.DEVICE, miner).raw,
        ]
        decoded = 0
        for _ in range(2000):
            raw = bytearray(rng.choice(valid))
            op = rng.randrange(4)
            if op == 0:  # random bytes, half of them with a known kind byte
                raw = bytearray(rng.randbytes(rng.randrange(0, 200)))
                if len(raw) > 1 and rng.randrange(2):
                    raw[1] = rng.choice((KIND_ANCHOR, KIND_REGISTRATION))
            elif op == 1:  # byte flips
                for _ in range(rng.randrange(1, 4)):
                    raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            elif op == 2:  # truncation
                del raw[rng.randrange(len(raw)) :]
            else:  # extension
                raw += rng.randbytes(rng.randrange(1, 70))
            raw = bytes(raw)
            try:
                tx = decode_tx(raw)
            except TxDecodeError:
                continue
            decoded += 1
            assert tx.raw == raw and tx.kind == raw[1]
            fields = self.ANCHOR_FIELDS if tx.kind == KIND_ANCHOR else self.REGISTRATION_FIELDS
            for name in ("version", "kind", "submitter_pubkey", "signature", "id", *fields):
                getattr(tx, name)
        assert decoded > 100  # the flips inside fields keep many inputs valid

    def test_block_from_json_line_returns_only_blocks_of_exactly_its_line(self, miner, device):
        rng = random.Random(19)
        chain, _ = build_chain(miner, device, [b"a", b"bb"])
        lines = [block_to_json_line(chain.blocks[0]), block_to_json_line(chain.tip)]
        alphabet = '0123456789abcdefABCDEF{}[]",:. -+etrufalsn\\'
        parsed = 0
        for _ in range(500):
            line = rng.choice(lines)
            at = rng.randrange(len(line))
            op = rng.randrange(4)
            if op == 0:  # replace one character
                line = line[:at] + rng.choice(alphabet) + line[at + 1 :]
            elif op == 1:  # insert one
                line = line[:at] + rng.choice(alphabet) + line[at:]
            elif op == 2:  # delete a span
                line = line[:at] + line[at + rng.randrange(1, 4) :]
            else:  # repeat a span
                line = line[:at] + line[at : at + rng.randrange(1, 12)] + line[at:]
            try:
                block = block_from_json_line(line, 3)
            except ChainFileError as err:
                assert err.line_no == 3
                continue
            parsed += 1
            assert block_to_json_line(block) == line
        assert parsed > 0  # some mutations leave the line as it was


class TestValidateBlock:
    def test_honest_block_valid(self, miner, device):
        chain, _ = build_chain(miner, device, [b"x", b"y"])
        assert validate_block(chain.tip, validate_chain(chain.blocks[:-1])) is None

    def test_every_tx_byte_mutation_detected(self, miner, device):
        """Per-byte mutation over a 2-tx block's transactions: the merkle root
        (or the signature, for mutations that keep ids intact) must catch it."""
        chain, _ = build_chain(miner, device, [b"first", b"second"])
        block = chain.tip
        parent = validate_chain(chain.blocks[:-1])
        assert len(block.transactions) == 2
        for which in range(2):
            raw = bytearray(block.transactions[which].raw)
            for position in range(len(raw)):
                mutated_raw = bytearray(raw)
                mutated_raw[position] ^= 0x01
                try:
                    mutated_tx = decode_tx(bytes(mutated_raw))
                except TxDecodeError:
                    continue  # undecodable is detected even earlier
                txs = list(block.transactions)
                txs[which] = mutated_tx
                mutated_block = Block(header=block.header, transactions=tuple(txs))
                reason = validate_block(mutated_block, parent)
                assert reason in ("merkle-mismatch", "bad-signature"), (position, reason)

    def test_unregistered_anchor_submitter(self, miner, device):
        intruder = keypair_for("intruder")
        chain, _ = build_chain(miner, device, [b"x"])
        pool_tx = build_anchor_tx(sha256_digest(b"evil"), "dev", GENESIS_TS, intruder)
        block = Block(
            header=BlockHeader(
                prev_hash=chain.tip.hash,
                merkle_root=merkle_root([pool_tx]),
                timestamp=chain.tip.header.timestamp + 1,
                difficulty=0,
                nonce=0,
            ),
            transactions=(pool_tx,),
        )
        assert validate_block(block, chain) == "unregistered-submitter"

    def test_stakeholder_anchor_not_permitted(self, miner, stakeholder):
        genesis = make_genesis([miner], GENESIS_TS)
        reg = build_registration_tx(stakeholder.public_key, NodeRole.STAKEHOLDER, miner)
        anchor = build_anchor_tx(sha256_digest(b"log"), "uc", GENESIS_TS + 1, stakeholder)
        block = Block(
            header=BlockHeader(
                prev_hash=genesis.hash,
                merkle_root=merkle_root([reg, anchor]),
                timestamp=GENESIS_TS + 1,
                difficulty=0,
                nonce=0,
            ),
            transactions=(reg, anchor),
        )
        chain = validate_chain([genesis])
        assert validate_block(block, chain) == "role-not-permitted"

    def test_registration_sponsor_must_be_miner(self, miner, device):
        chain, _ = build_chain(miner, device, [b"x"])
        other = keypair_for("other-device")
        reg = build_registration_tx(other.public_key, NodeRole.DEVICE, device)  # device sponsors
        block = Block(
            header=BlockHeader(
                prev_hash=chain.tip.hash,
                merkle_root=merkle_root([reg]),
                timestamp=chain.tip.header.timestamp,
                difficulty=0,
                nonce=0,
            ),
            transactions=(reg,),
        )
        assert validate_block(block, chain) == "unregistered-sponsor"

    def test_duplicate_registration_rejected(self, miner, device):
        chain, _ = build_chain(miner, device, [b"x"])
        reg = build_registration_tx(device.public_key, NodeRole.DEVICE, miner)
        block = Block(
            header=BlockHeader(
                prev_hash=chain.tip.hash,
                merkle_root=merkle_root([reg]),
                timestamp=chain.tip.header.timestamp,
                difficulty=0,
                nonce=0,
            ),
            transactions=(reg,),
        )
        assert validate_block(block, chain) == "already-registered"

    def test_tx_already_on_chain_rejected(self, miner, device):
        """Re-packing an anchor the chain already holds would list the log
        twice under one tx id; the block is refused at its height."""
        chain, _ = build_chain(miner, device, [b"x"])
        replayed = chain.tip.transactions
        block = Block(
            header=BlockHeader(
                prev_hash=chain.tip.hash,
                merkle_root=merkle_root(list(replayed)),
                timestamp=chain.tip.header.timestamp,
                difficulty=0,
                nonce=0,
            ),
            transactions=replayed,
        )
        with pytest.raises(ChainValidationError) as exc:
            chain.connect(block)
        assert (exc.value.height, exc.value.reason) == (chain.height + 1, "duplicate-tx")
        assert chain.anchor_locations(replayed[0].log_hash) == [(chain.height, 0)]

    def test_tx_twice_in_one_block_rejected(self, miner, device):
        chain, _ = build_chain(miner, device, [])
        anchor = build_anchor_tx(sha256_digest(b"twice"), "dev", GENESIS_TS + 5, device)
        block = Block(
            header=BlockHeader(
                prev_hash=chain.tip.hash,
                merkle_root=merkle_root([anchor, anchor]),
                timestamp=chain.tip.header.timestamp,
                difficulty=0,
                nonce=0,
            ),
            transactions=(anchor, anchor),
        )
        with pytest.raises(ChainValidationError, match="duplicate-tx"):
            validate_chain(chain.blocks + [block])

    def test_registration_effective_within_block(self, miner):
        """A key registered earlier in a block may anchor later in the same block."""
        genesis = make_genesis([miner], GENESIS_TS)
        late_device = keypair_for("late-device")
        reg = build_registration_tx(late_device.public_key, NodeRole.DEVICE, miner)
        anchor = build_anchor_tx(sha256_digest(b"first words"), "dev", GENESIS_TS + 1, late_device)
        block = Block(
            header=BlockHeader(
                prev_hash=genesis.hash,
                merkle_root=merkle_root([reg, anchor]),
                timestamp=GENESIS_TS + 1,
                difficulty=0,
                nonce=0,
            ),
            transactions=(reg, anchor),
        )
        assert validate_chain([genesis, block]).height == 2

    def test_timestamp_monotonicity(self, miner, device):
        chain, _ = build_chain(miner, device, [b"x"])
        tip = chain.tip
        early = Block(
            header=BlockHeader(
                prev_hash=tip.hash,
                merkle_root=tip.header.merkle_root,
                timestamp=tip.header.timestamp - 1,
                difficulty=0,
                nonce=0,
            ),
            transactions=tip.transactions,
        )
        assert validate_block(early, chain) == "bad-timestamp"

    def test_pow_enforced(self, miner, device):
        chain, _ = build_chain(miner, device, [b"x"])
        tip = chain.tip
        hard = Block(
            header=BlockHeader(
                prev_hash=tip.header.prev_hash,
                merkle_root=tip.header.merkle_root,
                timestamp=tip.header.timestamp,
                difficulty=255,
                nonce=tip.header.nonce,
            ),
            transactions=tip.transactions,
        )
        assert validate_block(hard, validate_chain(chain.blocks[:-1])) == "bad-pow"


class TestValidateChain:
    def test_genesis_only_is_valid_with_empty_index(self, miner):
        chain = validate_chain([make_genesis([miner], GENESIS_TS)])
        assert chain.height == 1
        assert chain.anchor_index == {}
        assert chain.registered_nodes == {miner.public_key: NodeRole.CSP_MINER}

    def test_bad_linkage_reported_at_right_height(self, miner, device):
        chain, _ = build_chain(miner, device, [b"a", b"b", b"c"], difficulty=0)
        blocks = list(chain.blocks)
        assert len(blocks) >= 3
        bad = Block(
            header=BlockHeader(
                prev_hash=blocks[0].hash,  # reuses block 1's prev target
                merkle_root=blocks[2].header.merkle_root,
                timestamp=blocks[2].header.timestamp,
                difficulty=blocks[2].header.difficulty,
                nonce=blocks[2].header.nonce,
            ),
            transactions=blocks[2].transactions,
        )
        blocks[2] = bad
        with pytest.raises(ChainValidationError) as err:
            validate_chain(blocks)
        assert err.value.height == 3
        assert err.value.reason == "bad-linkage"

    def test_empty_chain_fails(self):
        with pytest.raises(ChainValidationError) as err:
            validate_chain([])
        assert err.value.reason == "empty-chain"

    def test_binary_mutation_fuzz_5_blocks(self, miner, device):
        """Any single-byte change to any block's canonical bytes must make the
        chain fail to decode, fail to validate, or no longer be the same chain
        (different tip hash)."""
        chain, _ = build_chain(miner, device, [b"aa", b"bb", b"cc"], difficulty=0, txs_per_block=1)
        blocks = chain.blocks
        assert len(blocks) == 5
        original_tip = chain.tip.hash
        silent = 0
        for target_index in range(len(blocks)):
            raw = bytearray(encode_block(blocks[target_index]))
            for position in range(len(raw)):
                mutated = bytearray(raw)
                mutated[position] ^= 0x01
                try:
                    candidate = decode_block(bytes(mutated))
                except (ValueError, TxDecodeError):
                    continue
                rebuilt = list(blocks)
                rebuilt[target_index] = candidate
                try:
                    revalidated = validate_chain(rebuilt)
                except ChainValidationError:
                    continue
                if revalidated.tip.hash != original_tip:
                    continue
                silent += 1
        assert silent == 0

    def test_anchor_index_matches_linear_scan(self, miner, device):
        lines = [f"entry {i}".encode() for i in range(25)]
        chain, _ = build_chain(miner, device, lines)
        scanned = oracle_anchor_scan(chain.blocks)
        assert {bytes(k): v for k, v in chain.anchor_index.items()} == scanned

    def test_oracle_agreement_on_valid_and_broken_chains(self, miner, device, rng):
        chain, _ = build_chain(miner, device, [b"a", b"b", b"c", b"d", b"e"])
        ok, _, _ = oracle_validate_chain(chain.blocks)
        assert ok

        for _ in range(60):
            blocks = list(chain.blocks)
            index = rng.randrange(len(blocks))
            raw = bytearray(encode_block(blocks[index]))
            raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            try:
                blocks[index] = decode_block(bytes(raw))
            except (ValueError, TxDecodeError):
                continue
            ok_oracle, height_oracle, _ = oracle_validate_chain(blocks)
            try:
                validate_chain(blocks)
                ok_impl, height_impl = True, 0
            except ChainValidationError as err:
                ok_impl, height_impl = False, err.height
            assert ok_impl == ok_oracle
            if not ok_impl:
                assert height_impl == height_oracle


def chain_fields(chain):
    """The values of every ``Chain`` field, by name."""
    return {f.name: getattr(chain, f.name) for f in dataclasses.fields(chain)}


class TestConnectDisconnect:
    """``disconnect`` removes exactly what ``connect`` added, so a chain moved
    onto a block and back is equal to what it was in every field."""

    def blocks_to_connect(self, miner, device, chain):
        """Two blocks on ``chain``: one registers a fresh device, which anchors
        a log in it, and anchors another log twice; the next anchors that
        log a third time."""
        fresh = keypair_for("fresh-device")
        twice = sha256_digest(b"anchored twice")
        first = [
            build_registration_tx(fresh.public_key, NodeRole.DEVICE, miner),
            make_anchor(fresh, b"fresh device's log", GENESIS_TS + 10),
            build_anchor_tx(twice, "dev-a", GENESIS_TS + 10, device),
            build_anchor_tx(twice, "dev-b", GENESIS_TS + 10, device),
        ]
        second = [build_anchor_tx(twice, "dev-c", GENESIS_TS + 11, device)]
        blocks, working = [], chain.copy()
        for txs, ts in ((first, GENESIS_TS + 10), (second, GENESIS_TS + 11)):
            header = BlockHeader(
                prev_hash=working.tip.hash, merkle_root=merkle_root(txs), timestamp=ts,
                difficulty=0, nonce=0,
            )
            blocks.append(Block(header=header, transactions=tuple(txs)))
            working.connect(blocks[-1])
        assert working.anchor_locations(twice) == [(3, 2), (3, 3), (4, 0)]
        assert fresh.public_key in working.registered_nodes
        return blocks

    def test_connect_then_disconnect_restores_every_field(self, miner, device):
        chain, _ = build_chain(miner, device, [])
        assert len(dataclasses.fields(chain)) == 5
        for block in self.blocks_to_connect(miner, device, chain):
            before = chain_fields(chain.copy())
            chain.connect(block)
            assert chain_fields(chain) != before
            assert chain.disconnect() is block
            assert chain_fields(chain) == before
            chain.connect(block)
        assert chain_fields(chain) == chain_fields(validate_chain(chain.blocks))

    def test_disconnect_down_to_empty(self, miner, device):
        chain, _ = build_chain(miner, device, [])
        blocks = list(chain.blocks) + self.blocks_to_connect(miner, device, chain)
        chain = validate_chain(blocks)
        for height in range(len(blocks) - 1, -1, -1):
            chain.disconnect()
            expected = validate_chain(blocks[:height]) if height else ledger.Chain(blocks=[])
            assert chain_fields(chain) == chain_fields(expected)

    def test_copy_is_independent(self, miner, device):
        chain, _ = build_chain(miner, device, [])
        copy = chain.copy()
        assert copy == chain
        copy.connect(self.blocks_to_connect(miner, device, chain)[0])
        assert chain_fields(chain) == chain_fields(validate_chain(chain.blocks))
        assert copy.height == chain.height + 1


@pytest.fixture(scope="module")
def long_chain():
    """A valid chain of 193 txs: genesis, a registration, then 100 and 91
    anchors. A load's two workers split it 97/96, the parent taking heights
    1-2 and block 3's first 95 txs; a node holding genesis splits the other
    192 96/96, the parent taking the registration and the same 95."""
    chain, _ = build_chain(
        keypair_for("miner-0"), keypair_for("device-0"), [f"entry {i}".encode() for i in range(191)]
    )
    return chain


@pytest.fixture(scope="module")
def long_genesis(long_chain):
    """The chain of ``long_chain``'s genesis alone."""
    return validate_chain(long_chain.blocks[:1])


def tx_count(blocks) -> int:
    return sum(len(block.transactions) for block in blocks)


def with_txs(block, txs):
    """``block`` carrying ``txs`` instead, under a recomputed Merkle root."""
    header = dataclasses.replace(block.header, merkle_root=merkle_root(list(txs)))
    return Block(header, tuple(txs))


def with_tx(blocks, height, index, tx):
    """``blocks`` with the tx at ``index`` of the block at ``height`` replaced
    by ``tx`` and the later blocks relinked, so every header check passes."""
    txs = list(blocks[height - 1].transactions)
    txs[index] = tx
    out = blocks[: height - 1] + [with_txs(blocks[height - 1], txs)]
    for block in blocks[height:]:
        header = dataclasses.replace(block.header, prev_hash=out[-1].hash)
        out.append(Block(header, block.transactions))
    return out


def flipped(tx):
    """``tx`` with the first byte of its signature flipped."""
    signature = bytearray(tx.signature)
    signature[0] ^= 1
    return with_signature(tx, signature)


def with_bad_signature(blocks, height, index):
    """``blocks`` with one tx's signature flipped, so the first failure is
    that tx's ``bad-signature``."""
    return with_tx(blocks, height, index, flipped(blocks[height - 1].transactions[index]))


class TestForkedSignaturePrePass:
    """A chain load and a node's catch-up connect a run alike: the rules
    first, then the signatures in forked workers. The affinity mask is
    patched to two CPUs so that the workers run on a one-CPU machine too."""

    @pytest.fixture(params=["load", "adopt"])
    def connect(self, request, long_genesis, monkeypatch):
        """Connect blocks as ``validate_chain`` does, or as a node holding
        only genesis does in ``adopt_chain``: either returns the chain, or
        raises the ChainValidationError of the first invalid block.
        ``connect.held`` counts the txs it holds before, whose signatures it
        does not check."""
        if request.param == "load":

            def load(blocks):
                return validate_chain(blocks)

            load.held = 0
            return load
        failures = []
        connect_run = ledger.Chain.connect_run

        def spy(chain, *args, **kwargs):
            reason = connect_run(chain, *args, **kwargs)
            if reason is not None:
                failures.append(ChainValidationError(chain.height + 1, reason))
            return reason

        monkeypatch.setattr(ledger.Chain, "connect_run", spy)

        def adopt(blocks):
            state = NodeState(best=long_genesis)
            failures.clear()
            state.adopt_chain(blocks)
            if failures:
                raise failures[0]
            return state.best

        adopt.held = 1
        return adopt

    @pytest.fixture
    def parent_checks(self, monkeypatch):
        """Signature checks made in this process; a child's are not seen."""
        calls = []
        original = ledger.verify_signature
        monkeypatch.setattr(
            ledger, "verify_signature", lambda *args: calls.append(args[0]) or original(*args)
        )
        return calls

    @staticmethod
    def cpus(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    @staticmethod
    def assert_same_chain(chain, serial):
        assert chain.blocks == serial.blocks
        assert chain.registered_nodes == serial.registered_nodes
        assert chain.anchor_index == serial.anchor_index
        assert chain.tx_ids == serial.tx_ids

    def test_two_workers_match_serial_and_halve_parent_checks(
        self, long_chain, connect, parent_checks, monkeypatch
    ):
        blocks = long_chain.blocks
        count = tx_count(blocks) - connect.held
        self.cpus(monkeypatch, 1)
        serial = connect(blocks)
        assert len(parent_checks) == count
        parent_checks.clear()
        self.cpus(monkeypatch, 2)
        self.assert_same_chain(connect(blocks), serial)
        assert len(parent_checks) == -(-count // 2)

    @pytest.mark.parametrize(
        "height,index",
        [(3, 10), (3, 98), (4, 5)],
        ids=["parent-share", "child-share-same-block", "child-share-later-block"],
    )
    def test_bad_signature_fails_as_serial(self, long_chain, connect, monkeypatch, height, index):
        blocks = with_bad_signature(long_chain.blocks, height, index)
        failures = []
        for cpus in (1, 2):
            self.cpus(monkeypatch, cpus)
            with pytest.raises(ChainValidationError) as err:
                connect(blocks)
            failures.append((err.value.height, err.value.reason))
        assert failures == [(height, "bad-signature")] * 2

    @pytest.mark.parametrize(
        "height,index,label",
        [(2, 0, "device-0"), (3, 10, "fresh-device")],
        ids=["registers-the-anchoring-device", "registers-a-fresh-key"],
    )
    def test_bad_role_tag_fails_as_serial(
        self, long_chain, connect, miner, monkeypatch, height, index, label
    ):
        """The rules pass skips ``verify_tx``, so it connects a registration
        whose role byte names no role; the chain still fails at its block."""
        good = build_registration_tx(keypair_for(label).public_key, NodeRole.DEVICE, miner)
        raw = bytearray(good.raw)
        raw[34] = 0x09
        blocks = with_tx(long_chain.blocks, height, index, decode_tx(bytes(raw)))
        failures = []
        for cpus in (1, 2):
            self.cpus(monkeypatch, cpus)
            with pytest.raises(ChainValidationError) as err:
                connect(blocks)
            failures.append((err.value.height, err.value.reason))
        assert failures == [(height, "bad-role-tag")] * 2

    def test_bad_signature_in_parent_share_stops_the_pre_pass(
        self, long_chain, connect, parent_checks, monkeypatch
    ):
        self.cpus(monkeypatch, 2)
        with pytest.raises(ChainValidationError):
            connect(with_bad_signature(long_chain.blocks, 3, 10))
        # The pre-pass stops at the bad tx (2 + 11 checks, less those held)
        # and the second pass checks it once more; the rest of the share is
        # never checked.
        assert len(parent_checks) == 2 + 11 + 1 - connect.held

    def test_no_signature_checked_past_a_failing_header(
        self, long_chain, connect, parent_checks, monkeypatch
    ):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        self.cpus(monkeypatch, 2)
        third = long_chain.blocks[2]
        tampered = Block(third.header, third.transactions[::-1])
        blocks = long_chain.blocks[:2] + [tampered] + long_chain.blocks[3:]
        with pytest.raises(ChainValidationError) as err:
            connect(blocks)
        assert (err.value.height, err.value.reason) == (3, "merkle-mismatch")
        assert len(parent_checks) == 2 - connect.held

    def test_rule_failure_checks_no_signature_past_it(
        self, long_chain, connect, parent_checks, monkeypatch
    ):
        self.cpus(monkeypatch, 2)
        stranger = make_anchor(keypair_for("nobody"), b"unregistered")
        blocks = with_tx(long_chain.blocks, 3, 10, stranger)
        assert tx_count(blocks) >= 2 * ledger.MIN_TXS_PER_WORKER
        with pytest.raises(ChainValidationError) as err:
            connect(blocks)
        assert (err.value.height, err.value.reason) == (3, "unregistered-submitter")
        # Heights 1-2, less those held, then block 3 checked again with its
        # txs in order up to the stranger's validly signed anchor.
        assert len(parent_checks) == 2 + 11 - connect.held

    def test_failed_child_leaves_its_share_to_the_parent(
        self, long_chain, connect, parent_checks, monkeypatch
    ):
        parent = os.getpid()
        original = ledger.verify_tx

        def crash_in_child(*args, **kwargs):
            if os.getpid() != parent:
                raise RuntimeError("worker failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(ledger, "verify_tx", crash_in_child)
        self.cpus(monkeypatch, 2)
        self.assert_same_chain(connect(long_chain.blocks), long_chain)
        assert len(parent_checks) == tx_count(long_chain.blocks) - connect.held

    def test_failed_fork_leaves_its_share_to_the_parent(
        self, long_chain, connect, parent_checks, monkeypatch
    ):
        def fork_fails():
            raise OSError("out of processes")

        monkeypatch.setattr(os, "fork", fork_fails)
        self.cpus(monkeypatch, 2)
        self.assert_same_chain(connect(long_chain.blocks), long_chain)
        assert len(parent_checks) == tx_count(long_chain.blocks) - connect.held

    def test_no_fork_below_two_full_shares_or_beside_a_thread(
        self, long_chain, connect, parent_checks, monkeypatch
    ):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        self.cpus(monkeypatch, 2)
        # The last block cut to 89 anchors: 191 txs, one short of two shares.
        last = long_chain.blocks[-1]
        short = long_chain.blocks[:-1] + [with_txs(last, last.transactions[:89])]
        short_count = tx_count(short)
        assert short_count == 2 * ledger.MIN_TXS_PER_WORKER - 1
        assert connect(short).height == long_chain.height
        assert len(parent_checks) == short_count - connect.held
        parent_checks.clear()

        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(30,))
        waiter.start()
        try:
            assert connect(long_chain.blocks).height == long_chain.height
        finally:
            release.set()
            waiter.join(timeout=30)
        assert not waiter.is_alive()
        assert len(parent_checks) == tx_count(long_chain.blocks) - connect.held


class TestGenesis:
    def test_single_authority(self, miner):
        genesis = make_genesis([miner], GENESIS_TS)
        assert len(genesis.transactions) == 1
        tx = genesis.transactions[0]
        assert isinstance(tx, RegistrationTransaction)
        assert tx.role == NodeRole.CSP_MINER
        assert tx.new_node_pubkey == tx.submitter_pubkey == miner.public_key
        validate_chain([genesis])

    def test_prev_hash_is_64_hex_zeros(self, miner):
        genesis = make_genesis([miner], GENESIS_TS)
        assert genesis.header.prev_hash.hex() == "0" * 64

    def test_different_authority_sets_different_hashes(self, miner, device):
        a = make_genesis([miner], GENESIS_TS)
        b = make_genesis([miner, device], GENESIS_TS)
        assert a.hash != b.hash

    def test_empty_authorities_rejected(self):
        with pytest.raises(ValueError):
            make_genesis([], GENESIS_TS)

    def test_duplicate_authorities_rejected(self, miner):
        with pytest.raises(ValueError):
            make_genesis([miner, miner], GENESIS_TS)

    def test_golden_hash_reproducible(self):
        authority = __import__("bloff.crypto", fromlist=["generate_keypair"]).generate_keypair(
            bytes(range(32))
        )
        genesis = make_genesis([authority], 1_700_000_000)
        assert genesis.hash.hex() == GOLDEN_GENESIS_HASH
