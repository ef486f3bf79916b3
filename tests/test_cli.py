"""Command-line surface: pipelines, exit codes, JSON output."""

import functools
import json
import os
import stat

import pytest

from bloff import cli, ledger
from bloff.cli import build_parser, handle_command, is_address
from bloff.consensus import Mempool
from bloff.crypto import load_keypair, save_keypair, sha256_digest
from bloff.ingest import LogRecord, build_anchor_for_record
from bloff.ledger import NodeRole, build_registration_tx
from bloff.node import NodeLogic
from bloff.store import load_chain
from bloff.verify import InclusionProof, verify_inclusion_proof
from conftest import (
    GENESIS_TS,
    assert_pool_admissible,
    keypair_for,
    lone_node,
    partition_scenario,
)


def run_cli(capsys, *args):
    code = handle_command(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workspace(tmp_path, capsys):
    """keygen + genesis: one authority whose key doubles as the submitter."""
    key = tmp_path / "authority.key"
    chain = tmp_path / "chain.jsonl"
    code, out, _ = run_cli(
        capsys, "keygen", "--out", str(key), "--seed-hex", bytes(range(32)).hex()
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        "genesis",
        "--authority", str(key),
        "--out", str(chain),
        "--timestamp", str(GENESIS_TS),
    )
    assert code == 0
    return {"key": key, "chain": chain, "dir": tmp_path}


class TestKeygen:
    def test_writes_loadable_key_and_prints_identity(self, tmp_path, capsys):
        path = tmp_path / "k.key"
        code, out, _ = run_cli(capsys, "keygen", "--out", str(path))
        assert code == 0
        pair = load_keypair(str(path))
        assert f"public: {pair.public_key.hex()}" in out
        assert "node_id: " in out

    def test_seed_hex_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.key", tmp_path / "b.key"
        seed = "11" * 32
        run_cli(capsys, "keygen", "--out", str(a), "--seed-hex", seed)
        run_cli(capsys, "keygen", "--out", str(b), "--seed-hex", seed)
        assert a.read_text() == b.read_text()

    def test_bad_seed_is_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "keygen", "--out", str(tmp_path / "k"), "--seed-hex", "zz")
        assert code == 2
        assert "error:" in err


class TestGenesis:
    def test_creates_loadable_chain(self, workspace):
        chain = load_chain(str(workspace["chain"]))
        assert chain.height == 1

    def test_refuses_existing_file(self, workspace, capsys):
        code, _, err = run_cli(
            capsys,
            "genesis",
            "--authority", str(workspace["key"]),
            "--out", str(workspace["chain"]),
        )
        assert code == 2

    def test_default_path_uses_bloff_home(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BLOFF_HOME", str(tmp_path))
        key = tmp_path / "a.key"
        run_cli(capsys, "keygen", "--out", str(key))
        code, out, _ = run_cli(capsys, "genesis", "--authority", str(key))
        assert code == 0
        assert (tmp_path / "chain.jsonl").exists()


class TestSubmitMineVerifyPipeline:
    def test_full_pipeline_100_lines(self, workspace, tmp_path, capsys):
        """genesis -> submit 100 lines -> mine -> every original line verifies
        Accepted and every mutated line Rejected."""
        lines = [f"device-7 event {i:03d} state={i * i}" for i in range(100)]
        log = tmp_path / "batch.log"
        log.write_text("\n".join(lines) + "\n")

        code, out, err = run_cli(
            capsys,
            "submit",
            "--key", str(workspace["key"]),
            "--chain", str(workspace["chain"]),
            "--log", str(log),
            "--source-id", "device-7",
        )
        assert code == 0, err
        emitted = out.strip().splitlines()
        assert len(emitted) == 100
        for line, printed in zip(lines, emitted):
            txid_hex, log_hash_hex = printed.split()
            assert log_hash_hex == sha256_digest(line.encode()).hex()

        code, out, err = run_cli(
            capsys,
            "mine",
            "--key", str(workspace["key"]),
            "--chain", str(workspace["chain"]),
            "--difficulty", "4",
        )
        assert code == 0, err
        mined = json.loads(out.splitlines()[0])
        assert mined["txs"] == 100
        assert mined["height"] == 2

        for index in (0, 37, 99):
            present = tmp_path / "present.log"
            present.write_text(lines[index] + "\n")
            code, out, _ = run_cli(
                capsys, "verify", "--chain", str(workspace["chain"]), "--log", str(present)
            )
            assert code == 0
            assert '"outcome":"Accepted"' in out

            mutated = tmp_path / "mutated.log"
            mutated.write_text(lines[index].replace("device-7", "device-8") + "\n")
            code, out, _ = run_cli(
                capsys, "verify", "--chain", str(workspace["chain"]), "--log", str(mutated)
            )
            assert code == 1
            assert '"reason":"not-found"' in out

    def test_submit_unregistered_key_rejected(self, workspace, tmp_path, capsys):
        stranger = tmp_path / "stranger.key"
        save_keypair(str(stranger), keypair_for("cli-stranger"))
        log = tmp_path / "one.log"
        log.write_text("entry\n")
        code, _, err = run_cli(
            capsys,
            "submit",
            "--key", str(stranger),
            "--chain", str(workspace["chain"]),
            "--log", str(log),
            "--source-id", "s",
        )
        assert code == 2
        assert "unregistered-submitter" in err

    def test_register_then_device_submit(self, workspace, tmp_path, capsys):
        device = keypair_for("cli-device")
        device_key = tmp_path / "device.key"
        save_keypair(str(device_key), device)

        code, out, err = run_cli(
            capsys,
            "submit",
            "--key", str(workspace["key"]),
            "--chain", str(workspace["chain"]),
            "--register", device.public_key.hex(),
            "--role", "device",
        )
        assert code == 0, err
        assert "registration:" in out

        # The pending registration makes the device immediately usable.
        log = tmp_path / "dev.log"
        log.write_text("from the new device\n")
        code, _, err = run_cli(
            capsys,
            "submit",
            "--key", str(device_key),
            "--chain", str(workspace["chain"]),
            "--log", str(log),
            "--source-id", "new-device",
        )
        assert code == 0, err

        code, out, _ = run_cli(
            capsys,
            "mine",
            "--key", str(workspace["key"]),
            "--chain", str(workspace["chain"]),
            "--difficulty", "0",
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "verify", "--chain", str(workspace["chain"]), "--log", str(log)
        )
        assert code == 0

    def test_repeated_registration_is_refused(self, workspace, capsys):
        """A registration has no timestamp, so a repeat is the same tx: pending,
        it is "duplicate"; mined, it is "duplicate-tx". Neither is appended."""
        register = functools.partial(
            run_cli, capsys, "submit",
            "--key", str(workspace["key"]),
            "--chain", str(workspace["chain"]),
            "--register", keypair_for("cli-device").public_key.hex(),
            "--role", "device",
        )
        mempool = workspace["dir"] / "mempool.jsonl"
        assert register()[0] == 0
        pending = mempool.read_bytes()
        assert register() == (2, "", "rejected: duplicate\n")
        assert mempool.read_bytes() == pending
        code, _, err = run_cli(
            capsys, "mine", "--key", str(workspace["key"]), "--chain", str(workspace["chain"])
        )
        assert code == 0, err
        assert register() == (2, "", "rejected: duplicate-tx\n")
        assert mempool.read_bytes() == b""

    def test_mine_all_drains_pool(self, workspace, tmp_path, capsys):
        log = tmp_path / "many.log"
        log.write_text("\n".join(f"line {i}" for i in range(150)) + "\n")
        run_cli(
            capsys,
            "submit",
            "--key", str(workspace["key"]),
            "--chain", str(workspace["chain"]),
            "--log", str(log),
            "--source-id", "s",
        )
        code, out, _ = run_cli(
            capsys,
            "mine",
            "--key", str(workspace["key"]),
            "--chain", str(workspace["chain"]),
            "--difficulty", "0",
            "--all",
        )
        assert code == 0
        heights = [json.loads(line)["height"] for line in out.strip().splitlines()]
        assert heights == [2, 3]  # 100-tx cap forces two blocks
        assert load_chain(str(workspace["chain"])).height == 3
        mempool = workspace["dir"] / "mempool.jsonl"
        assert mempool.read_text() == ""

    def test_mine_all_seals_a_registration_and_its_anchors_across_the_cap(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        """98 anchors, the registration of a fresh device, then 4 anchors of
        that device: the first block takes 100 txs, the registration and
        one of its anchors among them, the second the other 3. Before each
        seal, a fresh pool admits the pending txs in order on the chain file
        as it stands, and the chain ends up holding them in submission order."""
        key, chain = str(workspace["key"]), str(workspace["chain"])
        fresh_key, many, few = tmp_path / "fresh.key", tmp_path / "many.log", tmp_path / "few.log"
        fresh = keypair_for("fresh-device")
        save_keypair(str(fresh_key), fresh)
        many.write_text("".join(f"line {i}\n" for i in range(98)))
        few.write_text("".join(f"fresh {i}\n" for i in range(4)))
        submitted = []
        for argv in (
            ["--key", key, "--log", str(many)],
            ["--key", key, "--register", fresh.public_key.hex(), "--role", "device"],
            ["--key", str(fresh_key), "--log", str(few)],
        ):
            code, out, err = run_cli(capsys, "submit", "--chain", chain, *argv)
            assert code == 0, err
            submitted += [line.split()[0] for line in out.splitlines()]
        sealed = []
        mine_block = cli.mine_block

        def checked(pool, *args, **kwargs):
            assert_pool_admissible(pool, load_chain(chain))
            block = mine_block(pool, *args, **kwargs)
            sealed.append(len(block.transactions))
            return block

        monkeypatch.setattr(cli, "mine_block", checked)
        code, _, err = run_cli(capsys, "mine", "--key", key, "--chain", chain, "--all")
        assert (code, err) == (0, "")
        assert sealed == [100, 3]
        blocks = load_chain(chain).blocks[1:]
        assert [tx.id.hex() for block in blocks for tx in block.transactions] == submitted
        assert (workspace["dir"] / "mempool.jsonl").read_text() == ""

    def test_mine_skips_pending_txs_already_on_chain(self, workspace, tmp_path, capsys):
        """A mempool file still holding mined txs (a crash between the chain
        append and the mempool rewrite) does not anchor them a second time."""
        log = tmp_path / "once.log"
        log.write_text("first\nsecond\n")
        chain, mempool = str(workspace["chain"]), workspace["dir"] / "mempool.jsonl"
        key = str(workspace["key"])
        run_cli(capsys, "submit", "--key", key, "--chain", chain, "--log", str(log))
        pending = mempool.read_text()
        code, _, _ = run_cli(capsys, "mine", "--key", key, "--chain", chain)
        assert code == 0
        mempool.write_text(pending)
        code, _, err = run_cli(capsys, "mine", "--key", key, "--chain", chain)
        assert code == 2
        assert err.count("skipping pending tx: invalid:duplicate-tx") == 2
        assert mempool.read_text() == ""
        code, _, err = run_cli(capsys, "mine", "--key", key, "--chain", chain)
        assert code == 2
        assert "skipping" not in err
        assert load_chain(chain).height == 2
        present = tmp_path / "present.log"
        present.write_text("first\n")
        code, out, _ = run_cli(capsys, "verify", "--chain", chain, "--log", str(present))
        assert code == 0
        assert len(json.loads(out)["matches"]) == 1

    def test_undecodable_pending_tx_is_skipped(self, workspace, tmp_path, capsys):
        """A pending line that is hex but no tx, not hex, not JSON, has no
        ``tx`` key or is not UTF-8 does not wedge the pipeline: ``submit``
        ignores it and ``mine`` skips it, drops it and mines the valid tx
        beside it."""
        chain, mempool = str(workspace["chain"]), workspace["dir"] / "mempool.jsonl"
        key = str(workspace["key"])
        first, second = tmp_path / "first.log", tmp_path / "second.log"
        first.write_text("first\n")
        second.write_text("second\n")
        assert run_cli(capsys, "submit", "--key", key, "--chain", chain, "--log", str(first))[0] == 0
        bad_lines = b'{"tx": "0101"}\n{"tx": "01zz"}\nnot json\n{"raw": "0101"}\n["0101"]\n\xff\n'
        with open(mempool, "ab") as fh:
            fh.write(bad_lines)
        code, _, err = run_cli(capsys, "submit", "--key", key, "--chain", chain, "--log", str(second))
        assert (code, err) == (0, "")
        code, out, err = run_cli(capsys, "mine", "--key", key, "--chain", chain)
        assert code == 0, err
        skipped = ["invalid:bad-length"] + 5 * ["invalid:bad-line"]
        assert err == "".join(f"skipping pending tx: {status}\n" for status in skipped)
        assert json.loads(out)["txs"] == 2
        assert mempool.read_text() == ""
        for log in (first, second):
            assert run_cli(capsys, "verify", "--chain", chain, "--log", str(log))[0] == 0

    def test_mine_keeps_pending_txs_past_a_pool_cap(self, workspace, tmp_path, capsys, monkeypatch):
        """More pending txs than a pool of the default size holds: ``mine``
        seals them all, and the mempool file loses none."""
        monkeypatch.setattr(cli, "Mempool", functools.partial(Mempool, capacity=5))
        chain, mempool = str(workspace["chain"]), workspace["dir"] / "mempool.jsonl"
        key = str(workspace["key"])
        log = tmp_path / "eight.log"
        log.write_text("".join(f"line {i}\n" for i in range(8)))
        assert run_cli(capsys, "submit", "--key", key, "--chain", chain, "--log", str(log))[0] == 0
        code, out, err = run_cli(capsys, "mine", "--key", key, "--chain", chain)
        assert (code, err) == (0, "")
        assert json.loads(out)["txs"] == 8
        assert mempool.read_text() == ""

    def test_mine_does_not_write_through_a_link_at_the_pool_temp_name(
        self, workspace, tmp_path, capsys
    ):
        """A symlink planted at ``mempool.jsonl.tmp`` is replaced, not
        written through: its target keeps its bytes and the pool file stays
        a regular file."""
        log, victim = tmp_path / "one.log", tmp_path / "victim"
        log.write_text("line\n")
        victim.write_text("keep me\n")
        chain = str(workspace["chain"])
        run_cli(capsys, "submit", "--key", str(workspace["key"]), "--chain", chain,
                "--log", str(log), "--source-id", "s")
        (workspace["dir"] / "mempool.jsonl.tmp").symlink_to(victim)
        code, _, err = run_cli(capsys, "mine", "--key", str(workspace["key"]), "--chain", chain)
        assert code == 0, err
        assert victim.read_text() == "keep me\n"
        mempool = workspace["dir"] / "mempool.jsonl"
        assert not mempool.is_symlink() and mempool.read_text() == ""

    def test_mine_empty_pool_is_error(self, workspace, capsys):
        code, _, err = run_cli(
            capsys,
            "mine",
            "--key", str(workspace["key"]),
            "--chain", str(workspace["chain"]),
        )
        assert code == 2
        assert "no-work" in err


class TestOneWriterPerChainFile:
    """``submit``, ``mine`` and ``genesis`` hold the chain file's writer lock
    from their first read to their last write; a second writer started in
    that window fails at once with the lock message and exit 2."""

    @staticmethod
    def inside_mine(monkeypatch, argv):
        """Patch ``mine_block`` to run ``argv`` once, from within the first
        call: after ``mine`` read the mempool file and before it rewrites
        it. Returns the list that receives the inner exit code."""
        codes, original = [], cli.mine_block

        def mine_block(*args):
            if not codes:
                codes.append(None)  # before the call: an inner ``mine`` reaches here too
                codes[0] = handle_command(argv)
            return original(*args)

        monkeypatch.setattr(cli, "mine_block", mine_block)
        return codes

    def test_submit_during_mine_is_refused_and_loses_no_tx(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        chain, key = str(workspace["chain"]), str(workspace["key"])
        first, late = tmp_path / "first.log", tmp_path / "late.log"
        first.write_text("first\n")
        late.write_text("late\n")
        assert run_cli(capsys, "submit", "--key", key, "--chain", chain, "--log", str(first))[0] == 0
        codes = self.inside_mine(
            monkeypatch, ["submit", "--key", key, "--chain", chain, "--log", str(late)]
        )
        code, out, err = run_cli(capsys, "mine", "--key", key, "--chain", chain)
        assert (code, codes) == (0, [2])
        assert err == f"error: chain file is locked: {chain}\n"
        printed = [line.split()[0] for line in out.splitlines() if not line.startswith("{")]
        pending = {tx.id.hex() for tx in cli.load_pending(str(workspace["dir"] / "mempool.jsonl"))}
        on_chain = {txid.hex() for txid in load_chain(chain).tx_ids}
        assert [txid for txid in printed if txid not in on_chain | pending] == []

    def test_overlapping_mine_is_refused_and_the_chain_still_loads(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        chain, key = str(workspace["chain"]), str(workspace["key"])
        log = tmp_path / "many.log"
        log.write_text("".join(f"line {i}\n" for i in range(150)))
        assert run_cli(capsys, "submit", "--key", key, "--chain", chain, "--log", str(log))[0] == 0
        codes = self.inside_mine(monkeypatch, ["mine", "--key", key, "--chain", chain, "--all"])
        code, out, err = run_cli(capsys, "mine", "--key", key, "--chain", chain, "--all")
        assert (code, codes) == (0, [2])
        assert err == f"error: chain file is locked: {chain}\n"
        assert [json.loads(line)["height"] for line in out.splitlines()] == [2, 3]
        assert load_chain(chain).height == 3
        # The lock is released with the command.
        code, _, err = run_cli(capsys, "mine", "--key", key, "--chain", chain)
        assert (code, err) == (2, "mining failed: no-work\n")

    @pytest.mark.parametrize("command", ["mine", "submit"])
    @pytest.mark.parametrize("name", ["chain.jsonl", "nodir/chain.jsonl"])
    def test_missing_chain_is_named_and_leaves_no_sidecar(self, tmp_path, capsys, command, name):
        home = tmp_path / "empty"
        home.mkdir()
        key, log = tmp_path / "k.key", tmp_path / "in.log"
        save_keypair(str(key), keypair_for("miner-0"))
        log.write_text("line\n")
        chain = str(home / name)
        argv = [command, "--key", str(key), "--chain", chain]
        code, out, err = run_cli(capsys, *argv, *(["--log", str(log)] if command == "submit" else []))
        assert (code, out, err) == (2, "", f"error: chain file not found: {chain}\n")
        assert sorted(p.name for p in home.rglob("*")) == []


class TestClientsRefuseAlike:
    """A simulated submission and a file-target ``bloff submit`` refuse a tx
    with the same reason, and neither checks a signature to refuse it."""

    # reason: (signer, the key a registration admits or None for an anchor, its role)
    CASES = {
        "unregistered-submitter": ("stranger", None, None),
        "role-not-permitted": ("stakeholder-0", None, None),
        "unregistered-sponsor": ("device-0", "stranger", "device"),
        "already-registered": ("authority", "device-0", "stakeholder"),
        "duplicate-tx": ("authority", "device-0", "device"),
    }

    @pytest.fixture
    def registered(self, workspace, capsys):
        """The workspace's chain, its block 2 registering device-0 as a
        device and stakeholder-0 as a stakeholder."""
        key, chain = str(workspace["key"]), str(workspace["chain"])
        for label, role in (("device-0", "device"), ("stakeholder-0", "stakeholder")):
            pubkey = keypair_for(label).public_key.hex()
            argv = ["submit", "--key", key, "--chain", chain, "--register", pubkey, "--role", role]
            assert run_cli(capsys, *argv)[0] == 0
        assert run_cli(capsys, "mine", "--key", key, "--chain", chain)[0] == 0
        return workspace

    @pytest.mark.parametrize("reason", list(CASES))
    def test_same_reason_and_no_signature_checked(self, registered, tmp_path, capsys, monkeypatch, reason):
        signer_label, admitted, role = self.CASES[reason]
        authority = load_keypair(str(registered["key"]))
        signer = authority if signer_label == "authority" else keypair_for(signer_label)
        key_path, log = tmp_path / "signer.key", tmp_path / "in.log"
        save_keypair(str(key_path), signer)
        if admitted is None:
            log.write_text("evidence\n")
            args = ["--log", str(log)]
            tx = build_anchor_for_record(LogRecord(b"evidence", "", GENESIS_TS), signer)
        else:
            pubkey = keypair_for(admitted).public_key
            args = ["--register", pubkey.hex(), "--role", role]
            tx = build_registration_tx(pubkey, NodeRole(role), signer)
        argv = ["submit", "--key", str(key_path), "--chain", str(registered["chain"]), *args]
        refused = (2, "", f"rejected: {reason}\n")
        # The first run checks the chain's signatures and leaves the signer's
        # checkpoint, so the second run's load checks none.
        assert run_cli(capsys, *argv) == refused
        chain = load_chain(str(registered["chain"]))
        net = lone_node(NodeLogic("m", authority, NodeRole.CSP_MINER, chain))
        checks = []
        verify_signature = ledger.verify_signature
        monkeypatch.setattr(ledger, "verify_signature", lambda *a: checks.append(a) or verify_signature(*a))
        assert run_cli(capsys, *argv) == refused
        assert net.submit("m", tx) == reason
        assert checks == []
        assert tx.id not in net.nodes["m"].logic.state.mempool


class TestVerifyOptions:
    @pytest.fixture
    def anchored_ws(self, workspace, tmp_path, capsys):
        log = tmp_path / "in.log"
        log.write_text("alpha\nbeta\n")
        run_cli(
            capsys,
            "submit",
            "--key", str(workspace["key"]),
            "--chain", str(workspace["chain"]),
            "--log", str(log),
            "--source-id", "s",
        )
        run_cli(
            capsys,
            "mine",
            "--key", str(workspace["key"]),
            "--chain", str(workspace["chain"]),
        )
        return workspace

    def test_min_confirmations_gate(self, anchored_ws, tmp_path, capsys):
        present = tmp_path / "p.log"
        present.write_text("alpha\n")
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--chain", str(anchored_ws["chain"]),
            "--log", str(present),
            "--min-confirmations", "5",
        )
        assert code == 1
        assert '"reason":"insufficient-confirmations"' in out

    def test_proof_out_verifies(self, anchored_ws, tmp_path, capsys):
        present = tmp_path / "p.log"
        present.write_text("beta\n")
        proof_path = tmp_path / "proof.json"
        code, _, _ = run_cli(
            capsys,
            "verify",
            "--chain", str(anchored_ws["chain"]),
            "--log", str(present),
            "--proof-out", str(proof_path),
        )
        assert code == 0
        proof = InclusionProof.from_dict(json.loads(proof_path.read_text()))
        chain = load_chain(str(anchored_ws["chain"]))
        header = chain.blocks[proof.block_height - 1].header
        assert verify_inclusion_proof(proof, header)

    def test_expect_submitter_filter(self, anchored_ws, tmp_path, capsys):
        present = tmp_path / "p.log"
        present.write_text("alpha\n")
        other = keypair_for("someone-else")
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--chain", str(anchored_ws["chain"]),
            "--log", str(present),
            "--expect-submitter", other.public_key.hex(),
        )
        assert code == 1

    def test_custody_report(self, anchored_ws, tmp_path, capsys):
        from bloff.verify import make_attestation

        log_bytes = b"alpha"
        digest = sha256_digest(log_bytes)
        holders = [keypair_for(f"cust-{i}") for i in range(2)]
        att_path = tmp_path / "att.jsonl"
        with open(att_path, "w") as fh:
            for i, holder in enumerate(holders):
                fh.write(make_attestation(digest, holder, GENESIS_TS + i).to_json() + "\n")
            fh.write("this line is not an attestation\n")
        present = tmp_path / "p.log"
        present.write_bytes(log_bytes + b"\n")
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--chain", str(anchored_ws["chain"]),
            "--log", str(present),
            "--custody", str(att_path),
        )
        assert code == 1  # malformed third hop fails the custody conjunction
        report = json.loads(out)
        assert [h["passed"] for h in report["hops"]] == [True, True, False]
        assert report["verdict"]["outcome"] == "Accepted"

    @pytest.mark.parametrize("submitter", ["anchoring-key", "someone-else"])
    def test_custody_verdict_honours_expect_submitter(self, anchored_ws, tmp_path, capsys, submitter):
        """With ``--custody``, every hop passing, the verdict and exit code
        are those of the same ``verify`` without it: Accepted for the key
        that anchored the log, Rejected for any other."""
        from bloff.verify import make_attestation

        if submitter == "anchoring-key":
            expected = load_keypair(str(anchored_ws["key"])).public_key
        else:
            expected = keypair_for(submitter).public_key
        att_path, present = tmp_path / "att.jsonl", tmp_path / "p.log"
        hop = make_attestation(sha256_digest(b"alpha"), keypair_for("cust-0"), GENESIS_TS)
        att_path.write_text(hop.to_json() + "\n")
        present.write_text("alpha\n")
        argv = ["verify", "--chain", str(anchored_ws["chain"]), "--log", str(present)]
        argv += ["--expect-submitter", expected.hex()]
        plain_code, plain_out, _ = run_cli(capsys, *argv)
        code, out, err = run_cli(capsys, *argv, "--custody", str(att_path))
        assert (code, err) == (plain_code, "")
        assert code == (0 if submitter == "anchoring-key" else 1)
        report = json.loads(out)
        assert report["overall"] == ("pass" if code == 0 else "fail")
        assert report["verdict"] == json.loads(plain_out)

    def test_custody_line_not_utf8_is_a_malformed_hop(self, anchored_ws, tmp_path, capsys):
        """A byte that is not UTF-8 fails only its own line's hop: the
        report of every hop prints, and the command exits 1."""
        from bloff.verify import make_attestation

        hop = make_attestation(sha256_digest(b"alpha"), keypair_for("cust-0"), GENESIS_TS)
        att_path = tmp_path / "att.jsonl"
        att_path.write_bytes(hop.to_json().encode() + b"\nnot an attestation\n\xff\n")
        present = tmp_path / "p.log"
        present.write_text("alpha\n")
        code, out, err = run_cli(
            capsys,
            "verify",
            "--chain", str(anchored_ws["chain"]),
            "--log", str(present),
            "--custody", str(att_path),
        )
        assert (code, err) == (1, "")
        assert [h["passed"] for h in json.loads(out)["hops"]] == [True, False, False]

    def test_custody_line_nested_past_the_recursion_limit(self, anchored_ws, tmp_path, capsys):
        """A custody line nested deeper than the recursion limit is a
        malformed hop, like any other line that is no attestation."""
        att_path = tmp_path / "att.jsonl"
        att_path.write_text("[" * 200_000 + "]" * 200_000 + "\n")
        present = tmp_path / "p.log"
        present.write_text("alpha\n")
        code, out, err = run_cli(
            capsys,
            "verify",
            "--chain", str(anchored_ws["chain"]),
            "--log", str(present),
            "--custody", str(att_path),
        )
        assert (code, err) == (1, "")
        assert [h["passed"] for h in json.loads(out)["hops"]] == [False]

    @pytest.mark.parametrize("timestamp", ["-5", "1e30", "1e400", "18446744073709551616"])
    def test_custody_timestamp_out_of_range_is_a_malformed_hop(
        self, anchored_ws, tmp_path, capsys, timestamp
    ):
        """A received timestamp that no u64 holds fails its hop as
        ``malformed``, with the report printed, and never ends the command
        with a traceback."""
        from bloff.verify import make_attestation

        line = make_attestation(sha256_digest(b"alpha"), keypair_for("cust-0"), 0).to_json()
        att_path = tmp_path / "att.jsonl"
        att_path.write_text(line.replace('"received_timestamp":0', f'"received_timestamp":{timestamp}') + "\n")
        present = tmp_path / "p.log"
        present.write_text("alpha\n")
        code, out, err = run_cli(
            capsys,
            "verify",
            "--chain", str(anchored_ws["chain"]),
            "--log", str(present),
            "--custody", str(att_path),
        )
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["hops"] == [{"index": 0, "passed": False, "reason": "malformed"}]
        assert report["verdict"]["outcome"] == "Accepted"

    def test_chain_line_nested_past_the_recursion_limit_is_error_2(self, anchored_ws, tmp_path, capsys):
        chain = anchored_ws["chain"]
        lines = chain.read_text().splitlines(keepends=True)
        chain.write_text(lines[0] + "[" * 200_000 + "]" * 200_000 + "\n" + "".join(lines[1:]))
        present = tmp_path / "p.log"
        present.write_text("alpha\n")
        code, out, err = run_cli(capsys, "verify", "--chain", str(chain), "--log", str(present))
        assert (code, out) == (2, "")
        assert err.startswith("error: chain file line 2: ")

    def test_missing_chain_is_error_2(self, tmp_path, capsys):
        log = tmp_path / "x.log"
        log.write_text("x\n")
        code, _, err = run_cli(
            capsys, "verify", "--chain", str(tmp_path / "absent.jsonl"), "--log", str(log)
        )
        assert code == 2


class TestInspect:
    def test_summary_and_block_and_tx(self, workspace, tmp_path, capsys):
        log = tmp_path / "in.log"
        log.write_text("only line\n")
        _, out, _ = run_cli(
            capsys,
            "submit",
            "--key", str(workspace["key"]),
            "--chain", str(workspace["chain"]),
            "--log", str(log),
            "--source-id", "s",
        )
        txid = out.split()[0]
        run_cli(capsys, "mine", "--key", str(workspace["key"]), "--chain", str(workspace["chain"]))

        code, out, _ = run_cli(capsys, "inspect", "--chain", str(workspace["chain"]))
        assert code == 0
        assert len(out.strip().splitlines()) == 2  # genesis + mined block

        code, out, _ = run_cli(
            capsys, "inspect", "--chain", str(workspace["chain"]), "--height", "2"
        )
        assert code == 0
        block = json.loads(out)
        assert block["height"] == 2
        assert block["txs"][0]["kind"] == "anchor"

        code, out, _ = run_cli(
            capsys, "inspect", "--chain", str(workspace["chain"]), "--tx", txid
        )
        assert code == 0
        assert json.loads(out)["tx_id"] == txid

        code, _, _ = run_cli(
            capsys, "inspect", "--chain", str(workspace["chain"]), "--tx", "00" * 32
        )
        assert code == 2


class TestReaderCheckpoint:
    def test_key_made_once_per_user_owner_only(self, reader_cache, tmp_path, monkeypatch):
        """The key is made in ``$XDG_CACHE_HOME/bloff``, or ``~/.cache/bloff``
        when that is unset, owner-only, and read again on later calls; no
        temp file is left. A chain's sidecar is named by its real path."""
        chain = tmp_path / "chain.jsonl"
        checkpoint = cli.reader_checkpoint(str(chain))
        path = reader_cache / "bloff" / "reader.key"
        assert load_keypair(str(path)) == checkpoint.keypair == cli.reader_checkpoint("x").keypair
        assert stat.S_IMODE(path.parent.stat().st_mode) == 0o700
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert os.listdir(path.parent) == ["reader.key"]
        monkeypatch.chdir(tmp_path)
        assert cli.reader_checkpoint("chain.jsonl").path == checkpoint.path
        assert os.path.dirname(checkpoint.path) == str(path.parent)
        assert cli.reader_checkpoint("other.jsonl").path != checkpoint.path
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        home_key = cli.reader_checkpoint(str(chain)).keypair
        assert load_keypair(str(tmp_path / "home" / ".cache" / "bloff" / "reader.key")) == home_key
        assert home_key != checkpoint.keypair

    @pytest.mark.parametrize("cache", ["relative/cache", "~"])
    def test_a_relative_cache_directory_gives_none_and_no_file(self, tmp_path, monkeypatch, cache):
        """A relative ``$XDG_CACHE_HOME``, or the ``~`` that is left when no
        home directory is known, names no cache: the load keeps no
        checkpoint and writes nothing in the working directory, which may
        be the evidence directory."""
        monkeypatch.chdir(tmp_path)
        if cache == "~":
            monkeypatch.delenv("XDG_CACHE_HOME")
            monkeypatch.setattr(os.path, "expanduser", lambda path: path)
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", cache)
        assert cli.reader_checkpoint("chain.jsonl") is None
        assert os.listdir(tmp_path) == []

    def test_racing_first_runs_keep_the_first_key(self, reader_cache, monkeypatch):
        """A run that finds the key made between its check and its link
        keeps no checkpoint this once, leaves the winner's key and no temp
        file, and its next call reads the winner's key."""
        path = reader_cache / "bloff" / "reader.key"
        winner = keypair_for("winner")
        save = cli.save_keypair

        def save_after_the_winner(temp, keypair):
            save(str(path), winner)
            save(temp, keypair)

        monkeypatch.setattr(cli, "save_keypair", save_after_the_winner)
        assert cli.reader_checkpoint("chain.jsonl") is None
        assert os.listdir(path.parent) == ["reader.key"]
        assert cli.reader_checkpoint("chain.jsonl").keypair == load_keypair(str(path)) == winner


class TestSimulateCommand:
    def test_byte_identical_reports(self, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(partition_scenario()))
        code, first, _ = run_cli(
            capsys, "simulate", "--scenario", str(scenario_path), "--seed", "7"
        )
        assert code == 0
        code, second, _ = run_cli(
            capsys, "simulate", "--scenario", str(scenario_path), "--seed", "7"
        )
        assert first == second
        report = json.loads(first)
        assert report["converged"] is True

    def test_trace_flag_prints_events(self, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(partition_scenario()))
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", str(scenario_path), "--trace"
        )
        assert code == 0
        assert any(line.startswith("t=") for line in out.splitlines())


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "keygen", "--frob")[0] == 2

    def test_one_parser_shares_no_arguments_between_calls(self):
        """The parser is built once per process; an ``append`` option's
        values from one call do not reach the next."""
        parser = build_parser()
        assert build_parser() is parser
        argv = ["--role", "device", "--key", "k"]
        assert parser.parse_args(["node", *argv, "--peer", "a"]).peer == ["a"]
        assert parser.parse_args(["node", *argv]).peer == []
        assert parser.parse_args(["genesis", "--authority", "a"]).authority == ["a"]
        assert parser.parse_args(["genesis", "--authority", "b"]).authority == ["b"]

    def test_is_address_heuristic(self, tmp_path):
        assert is_address("127.0.0.1:9000")
        assert is_address("node.example.com:80")
        assert not is_address(str(tmp_path / "chain.jsonl"))
        assert not is_address("chain.jsonl")
