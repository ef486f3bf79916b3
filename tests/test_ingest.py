"""Record canonicalization, log sources and anchor submission."""

import pytest

from bloff.crypto import sha256_digest
from bloff.ingest import (
    LogRecord,
    LogSource,
    RecordError,
    SourceError,
    build_anchor_for_record,
    canonicalize_record,
    ingest,
)
from bloff.ledger import NodeRole
from bloff.node import NodeLogic
from conftest import GENESIS_TS, build_chain, keypair_for, lone_node


class TestCanonicalizeRecord:
    def test_strips_one_lf(self):
        assert canonicalize_record(b"error: fan failure\n") == b"error: fan failure"

    def test_strips_one_crlf(self):
        assert canonicalize_record(b"a\r\n") == b"a"

    def test_strips_exactly_one_terminator(self):
        assert canonicalize_record(b"a\n\n") == b"a\n"
        assert canonicalize_record(b"a\r\n\r\n") == b"a\r\n"

    def test_lone_cr_is_content(self):
        assert canonicalize_record(b"a\r") == b"a\r"

    def test_no_terminator_passes_through(self):
        assert canonicalize_record(b"tail line") == b"tail line"

    def test_empty_after_strip_rejected(self):
        for raw in (b"\n", b"\r\n", b""):
            with pytest.raises(RecordError) as err:
                canonicalize_record(raw)
            assert err.value.reason == "empty-record"

    def test_oversize_rejected(self):
        canonicalize_record(b"x" * 65536)  # boundary ok
        with pytest.raises(RecordError) as err:
            canonicalize_record(b"x" * 65537)
        assert err.value.reason == "oversize"

    def test_no_other_normalization(self):
        raw = b"  spaces kept  \t tab kept \xff\xfe binary kept"
        assert canonicalize_record(raw) == raw


class TestIngestFile:
    def test_three_lines_in_order(self, tmp_path):
        path = tmp_path / "events.log"
        path.write_bytes(b"one\ntwo\nthree\n")
        records = list(ingest(LogSource(kind="file", source_id="s", location=str(path))))
        assert [r.raw for r in records] == [b"one", b"two", b"three"]
        assert all(r.source_id == "s" for r in records)

    def test_final_unterminated_line_kept(self, tmp_path):
        path = tmp_path / "events.log"
        path.write_bytes(b"one\ntail without newline")
        records = list(ingest(LogSource(kind="file", source_id="s", location=str(path))))
        assert [r.raw for r in records] == [b"one", b"tail without newline"]

    def test_invalid_utf8_passes_through(self, tmp_path):
        payload = b"\xff\xfe binary \x00 line"
        path = tmp_path / "events.log"
        path.write_bytes(payload + b"\n")
        (record,) = ingest(LogSource(kind="file", source_id="s", location=str(path)))
        assert record.raw == payload

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "events.log"
        path.write_bytes(b"one\n\n\ntwo\n")
        records = list(ingest(LogSource(kind="file", source_id="s", location=str(path))))
        assert [r.raw for r in records] == [b"one", b"two"]

    def test_crlf_file(self, tmp_path):
        path = tmp_path / "events.log"
        path.write_bytes(b"one\r\ntwo\r\n")
        records = list(ingest(LogSource(kind="file", source_id="s", location=str(path))))
        assert [r.raw for r in records] == [b"one", b"two"]

    def test_missing_file_errors_with_path(self, tmp_path):
        missing = tmp_path / "nope.log"
        with pytest.raises(SourceError, match="nope.log"):
            list(ingest(LogSource(kind="file", source_id="s", location=str(missing))))

    def test_timestamps_from_clock(self, tmp_path):
        path = tmp_path / "events.log"
        path.write_bytes(b"one\n")
        (record,) = ingest(
            LogSource(kind="file", source_id="s", location=str(path)), clock=lambda: 123.9
        )
        assert record.capture_timestamp == 123


class TestLogRecord:
    def test_hash_is_sha256_of_raw(self):
        record = LogRecord(raw=b"abc", source_id="s", capture_timestamp=GENESIS_TS)
        assert record.log_hash == sha256_digest(b"abc")

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            LogRecord(raw=b"", source_id="s", capture_timestamp=GENESIS_TS)
        with pytest.raises(ValueError):
            LogRecord(raw=b"x" * 65537, source_id="s", capture_timestamp=GENESIS_TS)


def submit_record(logic, record, keypair):
    """Sign ``record`` with ``keypair`` and submit it to ``logic``'s node as
    a ``tx-gossip`` frame; the tx id and ``SimNetwork.submit``'s result."""
    tx = build_anchor_for_record(record, keypair)
    return tx.id, lone_node(logic).submit(logic.node_id, tx)


class TestAnchorRecord:
    def test_returns_tx_id_and_pools_tx(self, miner, device):
        chain, _ = build_chain(miner, device, [])
        logic = NodeLogic("m", miner, NodeRole.CSP_MINER, chain)
        record = LogRecord(raw=b"payload", source_id="dev", capture_timestamp=GENESIS_TS + 9)
        txid, result = submit_record(logic, record, device)
        assert result == "ok"
        (pooled,) = logic.state.mempool.oldest()
        assert pooled.id == txid
        assert pooled.log_hash == sha256_digest(b"payload")

    def test_same_bytes_twice_distinct_ids_one_digest(self, miner, device):
        chain, _ = build_chain(miner, device, [])
        logic = NodeLogic("m", miner, NodeRole.CSP_MINER, chain)
        r1 = LogRecord(raw=b"payload", source_id="dev", capture_timestamp=GENESIS_TS + 9)
        r2 = LogRecord(raw=b"payload", source_id="dev", capture_timestamp=GENESIS_TS + 10)
        id1, result1 = submit_record(logic, r1, device)
        id2, result2 = submit_record(logic, r2, device)
        assert result1 == result2 == "ok"
        assert id1 != id2
        assert {tx.log_hash for tx in logic.state.mempool.oldest()} == {sha256_digest(b"payload")}

    def test_unregistered_key_rejected(self, miner, device):
        chain, _ = build_chain(miner, device, [])
        logic = NodeLogic("m", miner, NodeRole.CSP_MINER, chain)
        stranger = keypair_for("nobody")
        record = LogRecord(raw=b"payload", source_id="dev", capture_timestamp=GENESIS_TS + 9)
        _, result = submit_record(logic, record, stranger)
        assert result == "unregistered-submitter"
        assert len(logic.state.mempool) == 0

    def test_stakeholder_key_is_verify_only(self, miner, device, stakeholder):
        from bloff.consensus import Mempool, mine_block
        from bloff.ledger import build_registration_tx, validate_chain

        chain, _ = build_chain(miner, device, [])
        pool = Mempool()
        pool.add(build_registration_tx(stakeholder.public_key, NodeRole.STAKEHOLDER, miner), chain)
        block = mine_block(pool, chain.tip.header, 0, miner, GENESIS_TS + 5, chain.registered_nodes)
        chain = validate_chain(chain.blocks + [block])

        logic = NodeLogic("m", miner, NodeRole.CSP_MINER, chain)
        record = LogRecord(raw=b"payload", source_id="uc", capture_timestamp=GENESIS_TS + 9)
        _, result = submit_record(logic, record, stakeholder)
        assert result == "role-not-permitted"
        assert len(logic.state.mempool) == 0
