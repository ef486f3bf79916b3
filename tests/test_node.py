"""Live TCP nodes: wire codec, role checks, multi-process smoke and restart."""

import json
import socket
import subprocess
import sys
import time

import pytest

from bloff.crypto import save_keypair
from bloff.ingest import LogRecord, build_anchor_for_record
from bloff.ledger import NodeRole, canonical_tx_bytes, make_genesis, validate_chain
from bloff.node import (
    MSG_TX,
    NodeLogic,
    decode_wire,
    encode_wire,
    fetch_chain,
)
from bloff.verify import verify_log
from bloff.store import write_chain
from conftest import GENESIS_TS, build_chain, child_env, keypair_for


class TestWireCodec:
    def test_roundtrip(self):
        line = encode_wire("tx-gossip", b"\x00\x01\xff", "abc", "*")
        assert line.endswith(b"\n")
        kind, payload, from_id, to_id = decode_wire(line[:-1])
        assert (kind, payload, from_id, to_id) == ("tx-gossip", b"\x00\x01\xff", "abc", "*")

    def test_single_line_json(self):
        line = encode_wire("block-gossip", bytes(100), "a", "b")
        obj = json.loads(line)
        assert set(obj) == {"kind", "payload", "from", "to"}


class TestRolePolicy:
    def test_stakeholder_never_mines(self, miner, stakeholder):
        chain = validate_chain([make_genesis([miner], GENESIS_TS)])
        logic = NodeLogic("s", stakeholder, NodeRole.STAKEHOLDER, chain)
        record = LogRecord(raw=b"work", source_id="m", capture_timestamp=GENESIS_TS + 1)
        logic.state.mempool.add(build_anchor_for_record(record, miner))
        assert len(logic.state.mempool) == 1
        assert logic.maybe_mine(GENESIS_TS + 2) is None

    def test_device_never_mines(self, miner, device):
        chain = validate_chain([make_genesis([miner], GENESIS_TS)])
        logic = NodeLogic("d", device, NodeRole.DEVICE, chain)
        record = LogRecord(raw=b"work", source_id="m", capture_timestamp=GENESIS_TS + 1)
        logic.state.mempool.add(build_anchor_for_record(record, miner))
        assert logic.maybe_mine(GENESIS_TS + 2) is None


class TestAnchorReplay:
    """A tx already on the best chain is refused at admission, so a node
    never anchors the same log twice under one tx id."""

    def test_gossiped_mined_anchor_not_mined_again(self, miner, device):
        chain, _ = build_chain(miner, device, [b"evidence"])
        logic = NodeLogic("m", miner, NodeRole.CSP_MINER, chain)
        payload = canonical_tx_bytes(chain.tip.transactions[0])
        assert logic.handle_message(MSG_TX, payload, "peer") == []
        assert len(logic.state.mempool) == 0
        assert logic.maybe_mine(GENESIS_TS + 50) is None
        assert len(verify_log(b"evidence", logic.chain).matches) == 1

    def test_local_resubmission_of_mined_anchor_refused(self, miner, device):
        chain, _ = build_chain(miner, device, [b"evidence"])
        logic = NodeLogic("m", miner, NodeRole.CSP_MINER, chain)
        assert logic.submit_tx(chain.tip.transactions[0]) == (False, "invalid:duplicate-tx")
        assert len(logic.state.mempool) == 0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_for_port(port: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.5):
                return
        except OSError:
            time.sleep(0.1)
    raise TimeoutError(f"port {port} never opened")


def wait_until(predicate, timeout: float = 20.0, interval: float = 0.2):
    deadline = time.monotonic() + timeout
    last = None
    while time.monotonic() < deadline:
        last = predicate()
        if last:
            return last
        time.sleep(interval)
    raise TimeoutError(f"condition not reached, last={last!r}")


def bloff_cli(*args, timeout=30):
    return subprocess.run(
        [sys.executable, "-m", "bloff", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=child_env(),
    )


def start_node(role, key_path, chain_path, port, peers=(), difficulty=4):
    args = [
        sys.executable,
        "-m",
        "bloff",
        "node",
        "--role",
        role,
        "--key",
        str(key_path),
        "--chain",
        str(chain_path),
        "--listen",
        f"127.0.0.1:{port}",
        "--difficulty",
        str(difficulty),
    ]
    for peer in peers:
        args += ["--peer", peer]
    proc = subprocess.Popen(
        args, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=child_env()
    )
    wait_for_port(port)
    return proc


@pytest.fixture
def live_pair(tmp_path, miner, device, stakeholder):
    """A miner node and a stakeholder node sharing one genesis, plus keys."""
    miner_key = tmp_path / "miner.key"
    device_key = tmp_path / "device.key"
    stakeholder_key = tmp_path / "stakeholder.key"
    save_keypair(str(miner_key), miner)
    save_keypair(str(device_key), device)
    save_keypair(str(stakeholder_key), stakeholder)

    genesis = make_genesis([miner], GENESIS_TS)
    miner_dir = tmp_path / "miner"
    stakeholder_dir = tmp_path / "stakeholder"
    miner_dir.mkdir()
    stakeholder_dir.mkdir()
    write_chain(str(miner_dir / "chain.jsonl"), [genesis])
    write_chain(str(stakeholder_dir / "chain.jsonl"), [genesis])

    miner_port = free_port()
    stakeholder_port = free_port()
    miner_proc = start_node("csp-miner", miner_key, miner_dir / "chain.jsonl", miner_port)
    stakeholder_proc = start_node(
        "stakeholder",
        stakeholder_key,
        stakeholder_dir / "chain.jsonl",
        stakeholder_port,
        peers=[f"127.0.0.1:{miner_port}"],
    )
    handles = {
        "miner_proc": miner_proc,
        "stakeholder_proc": stakeholder_proc,
        "miner_addr": f"127.0.0.1:{miner_port}",
        "stakeholder_addr": f"127.0.0.1:{stakeholder_port}",
        "stakeholder_port": stakeholder_port,
        "keys": {"miner": miner_key, "device": device_key, "stakeholder": stakeholder_key},
        "dirs": {"miner": miner_dir, "stakeholder": stakeholder_dir},
    }
    try:
        yield handles
    finally:
        for proc in (handles["miner_proc"], handles["stakeholder_proc"]):
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()


def chain_height(address):
    try:
        return len(fetch_chain(address, timeout=3))
    except (OSError, TimeoutError, ValueError):
        return 0


class TestLiveSmoke:
    def test_submit_mine_gossip_verify_and_restart(self, tmp_path, live_pair, device):
        handles = live_pair
        miner_addr = handles["miner_addr"]
        stakeholder_addr = handles["stakeholder_addr"]

        # Sponsor the device key, wait until its registration is mined.
        result = bloff_cli(
            "submit",
            "--key", str(handles["keys"]["miner"]),
            "--chain", miner_addr,
            "--register", device.public_key.hex(),
            "--role", "device",
        )
        assert result.returncode == 0, result.stderr
        wait_until(lambda: chain_height(miner_addr) >= 2)

        # Device anchors two log lines at the miner.
        log_file = tmp_path / "device.log"
        log_file.write_bytes(b"sensor reading 41\nsensor reading 42\n")
        result = bloff_cli(
            "submit",
            "--key", str(handles["keys"]["device"]),
            "--chain", miner_addr,
            "--log", str(log_file),
            "--source-id", "sensor-1",
        )
        assert result.returncode == 0, result.stderr
        assert len(result.stdout.splitlines()) == 2

        # The anchors propagate to the stakeholder via gossip.
        wait_until(lambda: chain_height(stakeholder_addr) >= 3)

        # Stakeholder-side verification accepts the genuine line...
        genuine = tmp_path / "present.log"
        genuine.write_bytes(b"sensor reading 42\n")
        result = bloff_cli("verify", "--chain", stakeholder_addr, "--log", str(genuine))
        assert result.returncode == 0, result.stdout + result.stderr
        assert '"outcome":"Accepted"' in result.stdout

        # ... and rejects a forged one.
        forged = tmp_path / "forged.log"
        forged.write_bytes(b"sensor reading 43\n")
        result = bloff_cli("verify", "--chain", stakeholder_addr, "--log", str(forged))
        assert result.returncode == 1
        assert '"reason":"not-found"' in result.stdout

        # Restart the stakeholder; it must resume from its file and re-sync
        # whatever was mined while it was down.
        height_before = chain_height(stakeholder_addr)
        handles["stakeholder_proc"].terminate()
        handles["stakeholder_proc"].wait(timeout=5)

        more = tmp_path / "more.log"
        more.write_bytes(b"sensor reading 99\n")
        result = bloff_cli(
            "submit",
            "--key", str(handles["keys"]["device"]),
            "--chain", miner_addr,
            "--log", str(more),
            "--source-id", "sensor-1",
        )
        assert result.returncode == 0, result.stderr
        wait_until(lambda: chain_height(miner_addr) >= height_before + 1)

        handles["stakeholder_proc"] = start_node(
            "stakeholder",
            handles["keys"]["stakeholder"],
            handles["dirs"]["stakeholder"] / "chain.jsonl",
            handles["stakeholder_port"],
            peers=[handles["miner_addr"]],
        )
        wait_until(lambda: chain_height(stakeholder_addr) >= height_before + 1)
        result = bloff_cli("verify", "--chain", stakeholder_addr, "--log", str(more))
        assert result.returncode == 0, result.stdout + result.stderr

    def test_node_refuses_corrupted_chain_at_startup(self, tmp_path, miner):
        key = tmp_path / "miner.key"
        save_keypair(str(key), miner)
        chain_path = tmp_path / "chain.jsonl"
        write_chain(str(chain_path), [make_genesis([miner], GENESIS_TS)])
        data = bytearray(chain_path.read_bytes())
        data[20] ^= 0x01
        chain_path.write_bytes(bytes(data))
        result = bloff_cli(
            "node",
            "--role", "csp-miner",
            "--key", str(key),
            "--chain", str(chain_path),
            "--listen", f"127.0.0.1:{free_port()}",
            timeout=20,
        )
        assert result.returncode == 2
        assert "error:" in result.stderr

    def test_unregistered_submit_rejected_at_node(self, live_pair, tmp_path):
        intruder = keypair_for("live-intruder")
        intruder_key = tmp_path / "intruder.key"
        save_keypair(str(intruder_key), intruder)
        log_file = tmp_path / "bad.log"
        log_file.write_bytes(b"evil entry\n")
        result = bloff_cli(
            "submit",
            "--key", str(intruder_key),
            "--chain", live_pair["miner_addr"],
            "--log", str(log_file),
            "--source-id", "x",
        )
        assert result.returncode == 2
        assert "unregistered-submitter" in result.stderr
