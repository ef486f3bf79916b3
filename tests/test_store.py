"""Chain file persistence: load/append roundtrips and corruption detection."""

import dataclasses
import os
import stat
import time

import pytest

from bloff.cli import handle_command, load_chain_target, reader_checkpoint
from bloff.consensus import Mempool, mine_block
from bloff.crypto import KeyPair, save_keypair, sign
from bloff.ledger import (
    Block,
    ChainFileError,
    ChainValidationError,
    NodeRole,
    block_to_json_line,
    make_genesis,
    merkle_root,
    validate_chain,
    verify_tx,
)
from bloff.store import (
    BlockStore,
    Checkpoint,
    StoreError,
    append_mempool_file,
    load_chain,
    load_mempool_file,
    write_chain,
    write_mempool_file,
)
from conftest import GENESIS_TS, build_chain, grow, keypair_for, with_signature


def write_chain_file(tmp_path, chain, name="chain.jsonl"):
    path = tmp_path / name
    write_chain(str(path), chain.blocks)
    return path


class TestLoadChain:
    def test_fresh_genesis_file_loads_height_1(self, tmp_path, miner):
        genesis = make_genesis([miner], GENESIS_TS)
        store = BlockStore.create(str(tmp_path / "chain.jsonl"), genesis)
        assert store.chain.height == 1
        reloaded = load_chain(str(tmp_path / "chain.jsonl"))
        assert reloaded.blocks == [genesis]

    def test_append_then_reload_identical(self, tmp_path, miner, device):
        chain, _ = build_chain(miner, device, [b"a", b"b"], txs_per_block=1)
        path = write_chain_file(tmp_path, validate_chain(chain.blocks[:1]))
        store = BlockStore.open(str(path))
        for block in chain.blocks[1:]:
            store.append_block(block)
        reloaded = load_chain(str(path))
        assert reloaded.blocks == chain.blocks
        assert reloaded.tip.hash == chain.tip.hash
        assert reloaded.anchor_index == chain.anchor_index
        # The chain grown by appends equals the one replayed from the file.
        assert store.chain.blocks == reloaded.blocks
        assert store.chain.registered_nodes == reloaded.registered_nodes
        assert store.chain.anchor_index == reloaded.anchor_index

    def test_missing_file(self, tmp_path):
        with pytest.raises(StoreError):
            load_chain(str(tmp_path / "absent.jsonl"))

    def test_truncated_last_line_names_the_line(self, tmp_path, miner, device):
        chain, _ = build_chain(miner, device, [b"a"])
        path = write_chain_file(tmp_path, chain)
        data = path.read_bytes()
        path.write_bytes(data[:-10])  # chop terminator and tail
        with pytest.raises(ChainFileError) as err:
            load_chain(str(path))
        assert err.value.line_no == len(chain.blocks)

    def test_single_hex_digit_mutation_refuses_with_position(self, tmp_path, miner, device, rng):
        chain, _ = build_chain(miner, device, [b"a", b"b", b"c"], txs_per_block=2)
        path = write_chain_file(tmp_path, chain)
        original = path.read_bytes()
        hex_positions = [i for i, b in enumerate(original) if chr(b) in "0123456789abcdef"]
        for _ in range(120):
            position = rng.choice(hex_positions)
            replacement = rng.choice([c for c in "0123456789abcdef" if c != chr(original[position])])
            mutated = original[:position] + replacement.encode() + original[position + 1:]
            path.write_bytes(mutated)
            with pytest.raises((ChainFileError, ChainValidationError)) as err:
                load_chain(str(path))
            assert getattr(err.value, "line_no", None) or getattr(err.value, "height", None)
        path.write_bytes(original)
        load_chain(str(path))

    def test_interior_blank_line_rejected(self, tmp_path, miner, device):
        chain, _ = build_chain(miner, device, [b"a"])
        path = write_chain_file(tmp_path, chain)
        lines = path.read_text().splitlines()
        path.write_text(lines[0] + "\n\n" + "\n".join(lines[1:]) + "\n")
        with pytest.raises(ChainFileError):
            load_chain(str(path))


class TestBlockStore:
    def test_failed_write_disconnects_the_block(self, tmp_path, miner, device, monkeypatch):
        """A write that raises OSError leaves the in-memory chain as it was
        before the append, and the file unchanged."""
        from bloff import store as store_mod

        chain, _ = build_chain(miner, device, [b"a", b"b"], txs_per_block=1)
        path = write_chain_file(tmp_path, validate_chain(chain.blocks[:3]))
        store = BlockStore.open(str(path))
        before, data = store.chain.copy(), path.read_bytes()

        def failing_write(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(store_mod, "_write_lines", failing_write)
        with pytest.raises(OSError, match="disk full"):
            store.append_block(chain.blocks[3])
        assert store.chain == before
        assert path.read_bytes() == data
        monkeypatch.undo()
        store.append_block(chain.blocks[3])
        assert store.chain == load_chain(str(path)) == chain

    def test_append_requires_tip_extension(self, tmp_path, miner, device):
        chain, _ = build_chain(miner, device, [b"a", b"b"], txs_per_block=1)
        path = write_chain_file(tmp_path, validate_chain(chain.blocks[:2]))
        store = BlockStore.open(str(path))
        with pytest.raises(StoreError):
            store.append_block(chain.blocks[3])  # skips a height

    def test_append_rejects_unregistered_submitter(self, tmp_path, miner, device):
        """A correctly linked block whose anchor comes from an unregistered
        key is refused at its height; neither the file nor the chain moves."""
        from bloff.ingest import LogRecord, build_anchor_for_record

        chain, _ = build_chain(miner, device, [b"a"])
        path = write_chain_file(tmp_path, chain)
        store = BlockStore.open(str(path))
        before_bytes = path.read_bytes()
        before_chain = store.chain

        outsider = keypair_for("outsider")
        record = LogRecord(raw=b"forged", source_id="dev", capture_timestamp=GENESIS_TS + 70)
        pool = Mempool()
        # Pool and mine against a registry that admits the outsider, so only
        # the stored chain's registry can refuse the block.
        pool.add(build_anchor_for_record(record, outsider), build_chain(miner, outsider, [])[0])
        registry = dict(chain.registered_nodes)
        registry[outsider.public_key] = NodeRole.DEVICE
        block = mine_block(pool, chain.tip.header, 0, miner, GENESIS_TS + 70, registry)
        assert block.header.prev_hash == store.chain.tip.hash

        with pytest.raises(ChainValidationError) as err:
            store.append_block(block)
        assert err.value.height == chain.height + 1
        assert err.value.reason == "unregistered-submitter"
        assert path.read_bytes() == before_bytes
        assert store.chain is before_chain
        assert store.chain == load_chain(str(path))

    def test_losing_fork_goes_to_sidecar(self, tmp_path, miner, device):
        chain, _ = build_chain(miner, device, [b"main"])
        path = write_chain_file(tmp_path, chain)
        store = BlockStore.open(str(path))

        pool = Mempool()
        from bloff.ingest import LogRecord, build_anchor_for_record

        record = LogRecord(raw=b"fork payload", source_id="dev", capture_timestamp=GENESIS_TS + 50)
        pool.add(build_anchor_for_record(record, device), chain)
        fork_block = mine_block(
            pool,
            chain.blocks[-2].header,
            0,
            miner,
            GENESIS_TS + 50,
            validate_chain(chain.blocks[:-1]).registered_nodes,
        )
        store.record_fork(fork_block)

        main_lines = path.read_text().splitlines()
        with open(store.forks_path) as fh:
            fork_lines = fh.read().splitlines()
        assert block_to_json_line(fork_block) in fork_lines
        assert block_to_json_line(fork_block) not in main_lines
        load_chain(str(path))  # main file still the untouched best chain

    def test_sync_after_reorg_moves_displaced_blocks_to_forks(self, tmp_path, miner, device):
        chain, _ = build_chain(miner, device, [b"one", b"two"], txs_per_block=1)
        short = validate_chain(chain.blocks[:3])
        path = write_chain_file(tmp_path, short)
        store = BlockStore.open(str(path))

        # The owner moves the store's chain onto a longer branch from height 2.
        branch = grow(validate_chain(chain.blocks[:2]), miner, device, ["branch 0", "branch 1"])
        store.chain.disconnect()
        for block in branch.blocks[2:]:
            store.chain.connect(block)
        store.sync()
        assert load_chain(str(path)) == store.chain == branch
        with open(store.forks_path) as fh:
            assert fh.read().splitlines() == [block_to_json_line(short.blocks[2])]

    def test_sync_appends_only_what_the_chain_gained(self, tmp_path, miner, device, monkeypatch):
        from bloff import store as store_mod

        chain, _ = build_chain(miner, device, [b"a"])
        path = write_chain_file(tmp_path, chain)
        store = BlockStore.open(str(path))
        writes, write_lines = [], store_mod._write_lines

        def recording_write(path, lines, replace=False):
            lines = list(lines)
            writes.append((len(lines), replace))
            write_lines(path, lines, replace)

        monkeypatch.setattr(store_mod, "_write_lines", recording_write)
        store.sync()
        for block in grow(chain, miner, device, ["x", "y"]).blocks[chain.height :]:
            store.chain.connect(block)
        store.sync()
        store.sync()
        assert writes == [(2, False)]
        assert load_chain(str(path)) == store.chain

    def test_failed_sync_is_retried(self, tmp_path, miner, device, monkeypatch):
        """A write that raises leaves the store's record of the file as it
        was, so the next ``sync`` writes what the failed one did not."""
        from bloff import store as store_mod

        chain, _ = build_chain(miner, device, [b"a"])
        path = write_chain_file(tmp_path, chain)
        store = BlockStore.open(str(path))
        data = path.read_bytes()
        for block in grow(chain, miner, device, ["x", "y"]).blocks[chain.height :]:
            store.chain.connect(block)

        def failing_write(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(store_mod, "_write_lines", failing_write)
        with pytest.raises(OSError, match="disk full"):
            store.sync()
        assert path.read_bytes() == data
        monkeypatch.undo()
        store.sync()
        assert load_chain(str(path)) == store.chain
        assert not os.path.exists(store.forks_path)

    def test_torn_append_is_rewritten(self, tmp_path, miner, device, monkeypatch):
        """An append that raises after writing part of its lines (a full
        disk) leaves a torn file; the next ``sync`` rewrites it whole, not
        appending the same blocks after the torn line."""
        from bloff import store as store_mod

        chain, _ = build_chain(miner, device, [b"a"])
        path = write_chain_file(tmp_path, chain)
        store = BlockStore.open(str(path))
        for block in grow(chain, miner, device, ["x", "y"]).blocks[chain.height :]:
            store.chain.connect(block)

        def torn_write(path, lines, replace=False):
            text = "".join(line + "\n" for line in lines)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(text[:-1])  # the last line loses its newline
            raise OSError("disk full")

        monkeypatch.setattr(store_mod, "_write_lines", torn_write)
        with pytest.raises(OSError, match="disk full"):
            store.sync()
        with pytest.raises(ChainFileError):
            load_chain(str(path))
        monkeypatch.undo()
        store.sync()
        assert load_chain(str(path)) == store.chain

    def test_failed_fork_write_files_no_block_twice(self, tmp_path, miner, device, monkeypatch):
        """A fork-sidecar write that raises after writing its line (a failed
        fsync) comes after the chain file was rewritten; a later ``sync``
        neither rewrites the file nor files the displaced block again."""
        from bloff import store as store_mod

        chain, _ = build_chain(miner, device, [b"one", b"two"], txs_per_block=1)
        short = validate_chain(chain.blocks[:3])
        path = write_chain_file(tmp_path, short)
        store = BlockStore.open(str(path))
        branch = grow(validate_chain(chain.blocks[:2]), miner, device, ["branch 0", "branch 1"])
        store.chain.disconnect()
        for block in branch.blocks[2:]:
            store.chain.connect(block)
        writes, write_lines = [], store_mod._write_lines

        def failing_fsync(path, lines, replace=False):
            writes.append(path)
            write_lines(path, lines, replace)
            if path == store.forks_path:
                raise OSError("fsync failed")

        monkeypatch.setattr(store_mod, "_write_lines", failing_fsync)
        with pytest.raises(OSError, match="fsync failed"):
            store.sync()
        store.sync()
        assert writes == [str(path), store.forks_path]
        assert load_chain(str(path)) == store.chain == branch
        with open(store.forks_path) as fh:
            assert fh.read().splitlines() == [block_to_json_line(short.blocks[2])]

    def test_create_refuses_overwrite(self, tmp_path, miner):
        genesis = make_genesis([miner], GENESIS_TS)
        BlockStore.create(str(tmp_path / "chain.jsonl"), genesis)
        with pytest.raises(StoreError):
            BlockStore.create(str(tmp_path / "chain.jsonl"), genesis)

    def test_thousand_appends_load_under_5s(self, tmp_path, miner, device):
        """Desk-scale load budget: 1,000 single-tx blocks."""
        from bloff.ingest import LogRecord, build_anchor_for_record

        genesis = make_genesis([miner], GENESIS_TS)
        base, _ = build_chain(miner, device, [])
        path = write_chain_file(tmp_path, base)
        store = BlockStore.open(str(path))
        chain = store.chain
        blocks = list(chain.blocks)
        pool = Mempool()
        for i in range(1000):
            record = LogRecord(
                raw=f"bulk {i}".encode(), source_id="dev", capture_timestamp=GENESIS_TS + 100 + i
            )
            pool.add(build_anchor_for_record(record, device), chain)
        registered = chain.registered_nodes
        parent = chain.tip.header
        appended = []
        for i in range(1000):
            block = mine_block(
                pool, parent, 0, miner, GENESIS_TS + 100 + i, registered, block_tx_cap=1
            )
            pool.evict({tx.id for tx in block.transactions})
            appended.append(block)
            parent = block.header
        # Bulk write: equivalent bytes to 1,000 sequential appends.
        with open(path, "a", encoding="utf-8") as fh:
            for block in appended:
                fh.write(block_to_json_line(block) + "\n")
        started = time.perf_counter()
        reloaded = load_chain(str(path))
        elapsed = time.perf_counter() - started
        assert reloaded.height == base.height + 1000
        assert elapsed < 5.0, f"load took {elapsed:.2f}s"


class TestCheckpoint:
    """A load given a valid checkpoint gives the verdict of a full load: the
    same chain, or the same error at the same height or line."""

    @staticmethod
    def outcome(path, checkpoint=None, load=None):
        """The blocks of ``load`` of ``path``, by default ``load_chain`` with
        ``checkpoint``, or the type and text of its error."""
        try:
            return (load(str(path)) if load else load_chain(str(path), checkpoint)).blocks
        except (ChainFileError, ChainValidationError) as exc:
            return type(exc), str(exc)

    @pytest.fixture(scope="class")
    def long_chain(self):
        """Genesis, the registration block and 300 anchors in blocks 3-5."""
        chain, _ = build_chain(
            keypair_for("miner-0"), keypair_for("device-0"), [b"entry %d" % i for i in range(300)]
        )
        assert chain.height == 5
        return chain

    @staticmethod
    def with_bad_signature(block, reroot, signature_of=None):
        """``block`` with its middle tx's signature flipped, or made by
        ``signature_of(tx)``, and with the Merkle root of the new txs if
        ``reroot``."""
        txs = list(block.transactions)
        index = len(txs) // 2
        signature = bytearray(txs[index].signature)
        signature[0] ^= 1
        if signature_of is not None:
            signature = signature_of(txs[index])
        txs[index] = with_signature(txs[index], signature)
        header = block.header
        if reroot:
            header = dataclasses.replace(header, merkle_root=merkle_root(txs))
        return Block(header, tuple(txs))

    @pytest.mark.parametrize("fork", ["two-cpus", "fork-fails"])
    @pytest.mark.parametrize(
        "named,edited,reroot,reason",
        [
            # The edit changes block 4's hash, so block 5, the named tip, breaks
            # linkage: the prefix the checkpoint names is not what it vouched for.
            (5, 4, True, "bad-signature"),
            (5, 2, True, "bad-signature"),
            (5, 4, False, "merkle-mismatch"),
            (5, 5, False, "merkle-mismatch"),
            (3, 4, True, "bad-signature"),
            (3, 5, True, "bad-signature"),
        ],
    )
    def test_edited_file_fails_as_without_a_checkpoint(
        self, tmp_path, miner, long_chain, monkeypatch, fork, named, edited, reroot, reason
    ):
        blocks = list(long_chain.blocks)
        path = tmp_path / "chain.jsonl"
        Checkpoint(str(path), miner).write(validate_chain(blocks[:named]))
        blocks[edited - 1] = self.with_bad_signature(blocks[edited - 1], reroot)
        assert blocks[named - 1].hash == long_chain.blocks[named - 1].hash
        write_chain(str(path), blocks)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        if fork == "fork-fails":

            def no_fork():
                raise OSError("no fork")

            monkeypatch.setattr(os, "fork", no_fork)
        full = self.outcome(path)
        assert full == (ChainValidationError, f"invalid chain at height {edited}: {reason}")
        assert self.outcome(path, Checkpoint(str(path), miner)) == full

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_own_tx_with_a_flipped_signature_byte_fails_as_a_keyless_verify(
        self, tmp_path, device, long_chain, monkeypatch, capsys, cpus
    ):
        """The device's own tx with one signature byte flipped fails a load
        with the device's key at the height, and with the reason, of a
        keyless ``verify`` of the same file, in the parent's serial pass
        (one CPU) and in a forked worker's share (two)."""
        blocks = list(long_chain.blocks)
        blocks[3] = self.with_bad_signature(blocks[3], reroot=True)
        path, key = tmp_path / "chain.jsonl", tmp_path / "device.key"
        write_chain(str(path), blocks)
        save_keypair(str(key), device)
        (tmp_path / "batch.log").write_text("line\n")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        error = "error: invalid chain at height 4: bad-signature\n"
        argv = ["--chain", str(path), "--log", str(tmp_path / "batch.log")]
        assert handle_command(["verify", *argv]) == 2
        assert capsys.readouterr() == ("", error)
        assert handle_command(["submit", "--key", str(key), *argv]) == 2
        assert capsys.readouterr() == ("", error)
        full = self.outcome(path)
        assert full == (ChainValidationError, error[len("error: ") : -1])
        assert self.outcome(path, Checkpoint(str(path), device)) == full

    def test_a_keypair_takes_no_public_key_and_an_impostor_vouches_for_nothing(
        self, tmp_path, device, long_chain
    ):
        """A ``KeyPair`` is made from its secret alone, so it cannot name
        another key than the one its secret derives. A tx that claims the
        device's key, signed by an impostor, is ``bad-signature`` for a load
        with the impostor's key as for a keyless one."""
        impostor = keypair_for("impostor")
        with pytest.raises(TypeError):
            KeyPair(secret_key=impostor.secret_key, public_key=device.public_key)
        blocks = list(long_chain.blocks)
        blocks[3] = self.with_bad_signature(
            blocks[3], reroot=True, signature_of=lambda tx: sign(impostor, tx.raw[:-64])
        )
        forged = blocks[3].transactions[len(blocks[3].transactions) // 2]
        assert forged.submitter_pubkey == device.public_key
        assert verify_tx(forged, signer=impostor) == "bad-signature"
        path = tmp_path / "chain.jsonl"
        write_chain(str(path), blocks)
        full = self.outcome(path)
        assert full == (ChainValidationError, "invalid chain at height 4: bad-signature")
        assert self.outcome(path, Checkpoint(str(path), impostor)) == full

    def flips_fail_as_without_a_checkpoint(self, tmp_path, miner, device, keypair, first_line):
        """Acceptance criterion 2 (every single-byte flip of the chain file is
        rejected), for the bytes from line ``first_line`` on, with the
        checkpoint of ``keypair`` naming the original file's tip present. With
        no ``keypair``, it is the reader's checkpoint, made by the CLI's own
        load (``load_chain_target``), and each load goes through it."""
        chain, _ = build_chain(miner, device, [b"aa", b"bb", b"cc"], txs_per_block=1)
        path = write_chain_file(tmp_path, chain)
        load = None
        if keypair is None:
            load = load_chain_target
            assert self.outcome(path, load=load) == chain.blocks
            checkpoint = reader_checkpoint(str(path))
        else:
            Checkpoint(str(path), keypair).write(chain)
            checkpoint = Checkpoint(str(path), keypair)
        assert checkpoint.named == (5, chain.tip.hash)
        original = path.read_bytes()
        start = sum(len(line) for line in original.splitlines(keepends=True)[: first_line - 1])
        for position, byte in enumerate(original[start:], start):
            for replacement in {(byte + 1) % 256, byte ^ 0x01, byte ^ 0x20} - {byte}:
                path.write_bytes(original[:position] + bytes([replacement]) + original[position + 1 :])
                full = self.outcome(path)
                assert isinstance(full, tuple), (position, replacement)
                assert self.outcome(path, checkpoint, load) == full, (position, replacement)
        path.write_bytes(original)
        assert self.outcome(path, checkpoint, load) == chain.blocks

    def test_every_byte_flip_fails_as_without_a_checkpoint(self, tmp_path, miner, device):
        """The miner's checkpoint, whose key verifies every tx of the file,
        then the reader's, which ``verify`` and ``inspect`` keep."""
        self.flips_fail_as_without_a_checkpoint(tmp_path, miner, device, miner, 1)
        (tmp_path / "reader").mkdir()
        self.flips_fail_as_without_a_checkpoint(tmp_path / "reader", miner, device, None, 1)

    def test_every_byte_flip_of_own_txs_fails_as_without_a_checkpoint(
        self, tmp_path, miner, device
    ):
        """The device's checkpoint and key, which check the device's anchors
        in blocks 3-5 by signing them again; only those blocks' bytes are
        flipped, since the test above covers the rest."""
        self.flips_fail_as_without_a_checkpoint(tmp_path, miner, device, device, 3)

    def test_a_symlink_in_the_sidecars_place_is_not_followed(self, tmp_path, miner, device):
        """Whoever can write the chain's directory may plant a symlink where a
        key's sidecar goes. The write does not follow it, so its target keeps
        its bytes, and the next load, which finds no checkpoint, checks every
        signature."""
        chain, _ = build_chain(miner, device, [b"a", b"b"], txs_per_block=1)
        path = write_chain_file(tmp_path, chain)
        target = tmp_path / "authorized_keys"
        target.write_text("ssh-ed25519 AAAA owner\n")
        sidecar = tmp_path / os.path.basename(Checkpoint(str(path), miner).path)
        sidecar.symlink_to(target)
        assert BlockStore.open(str(path), miner).chain.blocks == chain.blocks
        assert sidecar.is_symlink() and target.read_text() == "ssh-ed25519 AAAA owner\n"
        assert Checkpoint(str(path), miner).named is None

    def test_keyed_store_names_its_tip_after_the_open_and_each_written_sync(
        self, tmp_path, miner, device, monkeypatch
    ):
        """``BlockStore.open`` with a key names the loaded tip in the key's
        checkpoint, and each ``sync`` that writes names the new tip; a failed
        write names nothing. A keyless store keeps no checkpoint."""
        from bloff import store as store_mod

        chain, _ = build_chain(miner, device, [b"a", b"b"], txs_per_block=1)
        path = write_chain_file(tmp_path, validate_chain(chain.blocks[:2]))
        assert BlockStore.open(str(path)).checkpoint is None
        store = BlockStore.open(str(path), miner)
        assert Checkpoint(str(path), miner).named == (2, chain.blocks[1].hash)

        def failing_write(*args, **kwargs):
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(store_mod, "_write_lines", failing_write)
            with pytest.raises(OSError):
                store.append_block(chain.blocks[2])
        assert Checkpoint(str(path), miner).named == (2, chain.blocks[1].hash)
        store.append_block(chain.blocks[2])
        assert Checkpoint(str(path), miner).named == (3, chain.blocks[2].hash)


class TestMempoolFile:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "mempool.jsonl")
        assert load_mempool_file(path) == []
        append_mempool_file(path, [b"\x01\x02", b"\x03"])
        assert load_mempool_file(path) == [b"\x01\x02", b"\x03"]
        write_mempool_file(path, [b"\x09"])
        assert load_mempool_file(path) == [b"\x09"]

    def test_malformed_line_reported(self, tmp_path):
        """A line that cannot be read stands as None in its place; the lines
        around it still load."""
        path = tmp_path / "mempool.jsonl"
        path.write_bytes(b'{"tx": "01"}\n{"tx": "zz"}\nnot json\n{}\n[]\n\xff\n{"tx": "02"}\n')
        assert load_mempool_file(str(path)) == [b"\x01", None, None, None, None, None, b"\x02"]

    def test_line_nested_past_the_recursion_limit_reported(self, tmp_path):
        path = tmp_path / "mempool.jsonl"
        nested = "[" * 200_000 + "]" * 200_000
        path.write_text('{"tx": "01"}\n' + nested + '\n{"tx": "02"}\n')
        assert load_mempool_file(str(path)) == [b"\x01", None, b"\x02"]


class TestDirectoryFsync:
    """A rename or a new file is durable only once its directory is fsynced,
    so each store write that makes one fsyncs the parent directory once,
    after the file's own fsync; an append to an existing file fsyncs only
    the file."""

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        """The inode of each fsynced fd, and whether it was a directory."""
        synced, original = [], os.fsync

        def fsync(fd):
            st = os.fstat(fd)
            synced.append((st.st_ino, stat.S_ISDIR(st.st_mode)))
            return original(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        return synced

    @staticmethod
    def directories(synced, directory):
        return [ino for ino, is_dir in synced if is_dir] == [os.stat(directory).st_ino]

    def test_write_chain_fsyncs_the_directory_after_the_rename(self, tmp_path, miner, fsyncs):
        write_chain(str(tmp_path / "chain.jsonl"), [make_genesis([miner], GENESIS_TS)])
        assert [is_dir for _, is_dir in fsyncs] == [False, True]
        assert self.directories(fsyncs, tmp_path)

    def test_write_mempool_file_fsyncs_the_directory_once(self, tmp_path, fsyncs):
        path = tmp_path / "mempool.jsonl"
        path.write_text("")
        write_mempool_file(str(path), [b"\x01"])
        assert [is_dir for _, is_dir in fsyncs] == [False, True]
        assert self.directories(fsyncs, tmp_path)

    def test_append_fsyncs_the_directory_only_when_it_creates_the_file(self, tmp_path, fsyncs):
        path = str(tmp_path / "mempool.jsonl")
        append_mempool_file(path, [b"\x01"])
        assert [is_dir for _, is_dir in fsyncs] == [False, True]
        assert self.directories(fsyncs, tmp_path)
        fsyncs.clear()
        append_mempool_file(path, [b"\x02"])
        assert [is_dir for _, is_dir in fsyncs] == [False]
        assert load_mempool_file(path) == [b"\x01", b"\x02"]

    def test_block_append_fsyncs_only_the_file(self, tmp_path, miner, device, fsyncs):
        chain, _ = build_chain(miner, device, [])
        path = write_chain_file(tmp_path, chain)
        store = BlockStore.open(str(path))
        fsyncs.clear()
        store.append_block(grow(chain, miner, device, ["next"]).tip)
        assert [is_dir for _, is_dir in fsyncs] == [False]
