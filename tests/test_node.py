"""Live TCP nodes: wire codec, role checks, multi-process smoke and restart."""

import contextlib
import random
import socket
import subprocess
import sys
import threading
import time

import pytest

from types import SimpleNamespace

from bloff import node as node_module
from bloff import store as store_module
from bloff.consensus import Mempool, mine_block
from bloff.crypto import ZERO_DIGEST, save_keypair, sha256_digest
from bloff.ingest import LogRecord, build_anchor_for_record
from bloff.ledger import (
    HEADER_LEN,
    Block,
    BlockHeader,
    NodeRole,
    build_anchor_tx,
    build_registration_tx,
    decode_blocks,
    encode_blocks,
    encode_compact_block,
    make_genesis,
    validate_chain,
)
from bloff.node import (
    BROADCAST,
    LOCATOR_MAX_HASHES,
    MSG_BLOCK,
    MSG_CHAIN_REQUEST,
    MSG_CHAIN_RESPONSE,
    MSG_TX,
    LiveNode,
    NodeConfig,
    NodeLogic,
    encode_frame,
    fetch_chain,
    read_frames,
    send_txs,
    split_frames,
)
from bloff.verify import verify_log
from bloff.store import BlockStore, load_chain, write_chain
from conftest import GENESIS_TS, build_chain, child_env, grow, keypair_for, lone_node


# Headers that cannot be read past: another version (1, or the "{" of a
# JSON line), and a kind past the four.
BAD_HEADERS = [
    bytes.fromhex("010000000000"),
    b'{"kind":"tx-gossip"}\n',
    bytes.fromhex("020400000000"),
    bytes.fromhex("02ff00000001") + b"\x00",
]


def frames_of(chunks):
    """The frames ``split_frames`` completes when fed ``chunks`` in turn."""
    buf, frames = bytearray(), []
    for chunk in chunks:
        frames += split_frames(buf, chunk)
    return frames


class FakeSocket:
    """Hands out ``chunks`` one per ``recv``, then EOF."""

    def __init__(self, chunks):
        self.chunks = list(chunks)

    def recv(self, size):
        return self.chunks.pop(0) if self.chunks else b""

    def settimeout(self, seconds):
        pass


class TestFrameCodec:
    def test_layout(self):
        assert encode_frame(MSG_TX, b"\x01\x02") == bytes.fromhex("0200000000020102")
        kinds = [MSG_TX, MSG_BLOCK, MSG_CHAIN_REQUEST, MSG_CHAIN_RESPONSE]
        assert [encode_frame(kind, b"")[1] for kind in kinds] == [0, 1, 2, 3]
        assert encode_frame(MSG_CHAIN_RESPONSE, bytes(70_000))[:6] == bytes.fromhex("020300011170")

    def test_frame_split_at_every_byte_boundary(self):
        frame = encode_frame(MSG_BLOCK, bytes(range(200)))
        for cut in range(len(frame) + 1):
            assert frames_of([frame[:cut], frame[cut:]]) == [(MSG_BLOCK, bytes(range(200)))]
        assert frames_of([frame[i : i + 1] for i in range(len(frame))]) == [
            (MSG_BLOCK, bytes(range(200)))
        ]

    def test_two_frames_in_one_chunk(self):
        chunk = encode_frame(MSG_TX, b"one") + encode_frame(MSG_CHAIN_RESPONSE, b"two")
        assert frames_of([chunk]) == [(MSG_TX, b"one"), (MSG_CHAIN_RESPONSE, b"two")]

    def test_empty_payload_is_a_frame(self):
        """The whole-chain ``chain-request`` has no payload, and is not
        skipped."""
        chunk = encode_frame(MSG_CHAIN_REQUEST, b"") + encode_frame(MSG_TX, b"x")
        assert frames_of([chunk]) == [(MSG_CHAIN_REQUEST, b""), (MSG_TX, b"x")]

    def test_partial_frame_stays_buffered(self):
        frame = encode_frame(MSG_TX, b"payload")
        buf = bytearray()
        assert split_frames(buf, frame + frame[:7]) == [(MSG_TX, b"payload")]
        assert buf == frame[:7]

    @pytest.mark.parametrize("header", BAD_HEADERS, ids=range(len(BAD_HEADERS)))
    def test_bad_header_raises_value_error(self, header):
        with pytest.raises(ValueError, match="bad frame header"):
            frames_of([encode_frame(MSG_TX, b"ok"), header])

    def test_read_frames_drops_a_partial_frame_at_eof(self):
        frame = encode_frame(MSG_TX, b"whole")
        chunks = [frame + frame[:3], frame[3:9]]
        assert list(read_frames(FakeSocket(chunks), time.monotonic() + 5)) == [(MSG_TX, b"whole")]

    def test_flipped_and_truncated_frames_raise_nothing_but_value_error(self, miner, device):
        """2,000 valid frames of every kind, each with bytes flipped or cut
        short, fed in random chunks: ``split_frames`` raises only
        ValueError, and a node handles every frame it yields."""
        chain, _ = build_chain(miner, device, [b"x", b"y"], txs_per_block=1)
        tx = build_anchor_tx(sha256_digest(b"fuzz"), "dev", GENESIS_TS + 50, device)
        start = validate_chain(chain.blocks[:2])
        frames = [
            encode_frame(kind, payload)
            for kind, payload in [
                (MSG_TX, tx.raw),
                (MSG_BLOCK, encode_compact_block(chain.tip)),
                NodeLogic("a", miner, NodeRole.CSP_MINER, chain).chain_request()[:2],
                (MSG_CHAIN_RESPONSE, encode_blocks(chain.blocks[1:])),
            ]
        ]
        rng = random.Random(0xB10FF)
        yielded = refused = 0
        for _ in range(2000):
            data = bytearray(rng.choice(frames))
            if rng.randrange(2):
                for _ in range(rng.randint(1, 3)):
                    data[rng.randrange(len(data))] = rng.randrange(256)
            else:
                del data[rng.randrange(len(data)) :]
            cuts = sorted(rng.randint(0, len(data)) for _ in range(2))
            chunks = [data[: cuts[0]], data[cuts[0] : cuts[1]], data[cuts[1] :]]
            try:
                decoded = frames_of(bytes(chunk) for chunk in chunks)
            except ValueError:
                refused += 1
                continue
            logic = NodeLogic("b", miner, NodeRole.CSP_MINER, start)
            for kind, payload in decoded:
                yielded += 1
                logic.handle_message(kind, payload, "peer")
        assert yielded > 500 and refused > 20


class FakeConn:
    def __init__(self):
        self.connected = True
        self.sent = []
        self.unsent = bytearray()
        self.sock = SimpleNamespace(send=lambda data: self.sent.append(bytes(data)) or len(data))


class TestSendOut:
    def test_broadcast_skips_origin_reply_goes_to_it(self, tmp_path, miner):
        path = tmp_path / "chain.jsonl"
        write_chain(str(path), [make_genesis([miner], GENESIS_TS)])
        config = NodeConfig(NodeRole.STAKEHOLDER, "unused.key", str(path))
        node = LiveNode(config, miner, BlockStore.open(str(path), miner))
        origin, other = FakeConn(), FakeConn()
        node._conns = [origin, other]
        node._send_out([(MSG_TX, b"tx", BROADCAST), (MSG_CHAIN_RESPONSE, b"r", "peer")], origin)
        assert other.sent == [encode_frame(MSG_TX, b"tx")]
        assert origin.sent == [encode_frame(MSG_CHAIN_RESPONSE, b"r")]
        node._send_out([(MSG_BLOCK, b"mined", BROADCAST)])
        assert len(origin.sent) == len(other.sent) == 2


def pool_txs(logic, blocks):
    """Pool the txs of ``blocks`` at ``logic``, as their tx gossip would."""
    for block in blocks:
        for tx in block.transactions:
            assert logic.state.mempool.add(tx, logic.chain) == "accepted"


class LongChain:
    """Stands in for the blocks of a chain far longer than any real one."""

    def __len__(self):
        return 2**62

    def __getitem__(self, height):
        header = BlockHeader(ZERO_DIGEST, ZERO_DIGEST, 0, 0, height % 2**64)
        return Block(header=header, transactions=())


class TestDeltaSync:
    """A ``chain-request`` carries a block locator; the reply, and the push
    after an adopt, hold only the blocks the receiver lacks."""

    @pytest.fixture
    def chains(self, miner, device):
        """A 41-block chain, and the same chain 5 blocks longer."""
        lines = [f"line {i}".encode() for i in range(39)]
        chain, _ = build_chain(miner, device, lines, txs_per_block=1)
        return chain, grow(chain, miner, device, [f"new {i}" for i in range(5)])

    def test_locator_layout(self, miner, chains):
        chain, _ = chains
        logic = NodeLogic("b", miner, NodeRole.CSP_MINER, chain)
        kind, payload, dest = logic.chain_request("a")
        assert (kind, dest) == (MSG_CHAIN_REQUEST, "a")
        heights = list(range(40, 30, -1)) + [29, 25, 17, 1, 0]
        assert payload == b"".join(chain.blocks[h].hash for h in heights)
        fresh = NodeLogic("g", miner, NodeRole.CSP_MINER, validate_chain(chain.blocks[:1]))
        assert fresh.chain_request()[1:] == (chain.blocks[0].hash, BROADCAST)

    def test_locator_capped(self, miner, chains):
        chain, _ = chains
        logic = NodeLogic("b", miner, NodeRole.CSP_MINER, chain)
        logic.state.best = SimpleNamespace(blocks=LongChain())
        payload = logic.chain_request()[1]
        assert len(payload) == 32 * LOCATOR_MAX_HASHES
        assert payload[-32:] == LongChain()[0].hash

    def test_malformed_locator_gets_no_reply(self, miner, chains):
        chain, longer = chains
        ahead = NodeLogic("a", miner, NodeRole.CSP_MINER, longer)
        tip = chain.tip.hash
        assert ahead.handle_message(MSG_CHAIN_REQUEST, tip + b"\x00", "b") == []
        too_long = tip * (LOCATOR_MAX_HASHES + 1)
        assert ahead.handle_message(MSG_CHAIN_REQUEST, too_long, "b") == []
        full = tip * (LOCATOR_MAX_HASHES - 1) + longer.blocks[0].hash
        [(_, reply, _)] = ahead.handle_message(MSG_CHAIN_REQUEST, full, "b")
        assert decode_blocks(reply) == longer.blocks[41:]

    def test_empty_request_gets_whole_chain(self, miner, chains):
        _, longer = chains
        ahead = NodeLogic("a", miner, NodeRole.CSP_MINER, longer)
        assert ahead.handle_message(MSG_CHAIN_REQUEST, b"", "b") == [
            (MSG_CHAIN_RESPONSE, encode_blocks(longer.blocks), "b")
        ]

    def test_no_reply_when_nothing_follows_or_nothing_matches(self, miner, chains):
        chain, longer = chains
        ahead = NodeLogic("a", miner, NodeRole.CSP_MINER, longer)
        assert ahead.handle_message(MSG_CHAIN_REQUEST, longer.tip.hash, "b") == []
        assert ahead.handle_message(MSG_CHAIN_REQUEST, bytes(32) * 3, "b") == []

    def test_locator_without_this_genesis_costs_no_walk(self, miner, chains):
        _, longer = chains
        ahead = NodeLogic("a", miner, NodeRole.CSP_MINER, longer)
        reads = []

        class CountingBlocks(list):
            def __getitem__(self, index):
                reads.append(index)
                return super().__getitem__(index)

        ahead.state.best = SimpleNamespace(blocks=CountingBlocks(longer.blocks))
        assert len(ahead.chain.blocks) == 46
        assert ahead.handle_message(MSG_CHAIN_REQUEST, bytes(32) * 3, "b") == []
        assert len(reads) <= 1

    def test_reorg_reply_and_push_start_at_fork_point(self, miner, device, chains):
        """A node on a losing 2-block side branch off height 39 gets, and then
        pushes on, the winning blocks from height 40 up."""
        chain, longer = chains
        side = grow(validate_chain(chain.blocks[:39]), miner, device, ["s1", "s2"])
        ahead = NodeLogic("a", miner, NodeRole.CSP_MINER, longer)
        behind = NodeLogic("b", miner, NodeRole.CSP_MINER, side)
        [(_, reply, _)] = ahead.handle_message(*behind.chain_request()[:2], "b")
        assert decode_blocks(reply) == longer.blocks[39:]
        assert behind.handle_message(MSG_CHAIN_RESPONSE, reply, "a") == [
            (MSG_CHAIN_RESPONSE, reply, BROADCAST)
        ]
        assert behind.chain.tip.hash == longer.tip.hash

    def test_run_on_unknown_parent_asks_sender_once(self, miner, chains):
        chain, longer = chains
        ahead = NodeLogic("a", miner, NodeRole.CSP_MINER, longer)
        behind = NodeLogic("b", miner, NodeRole.CSP_MINER, chain)
        push = encode_blocks(longer.blocks[44:])
        out = behind.handle_message(MSG_CHAIN_RESPONSE, push, "a")
        assert out == [behind.chain_request("a")]
        assert behind.chain.tip.hash == chain.tip.hash
        [(_, reply, _)] = ahead.handle_message(*out[0][:2], "b")
        behind.handle_message(MSG_CHAIN_RESPONSE, reply, "a")
        assert behind.chain.tip.hash == longer.tip.hash

    def test_orphaned_block_asks_sender_with_locator(self, miner, chains):
        chain, longer = chains
        ahead = NodeLogic("a", miner, NodeRole.CSP_MINER, longer)
        behind = NodeLogic("b", miner, NodeRole.CSP_MINER, chain)
        pool_txs(behind, longer.blocks[45:])
        payload = encode_compact_block(longer.tip)
        out = behind.handle_message(MSG_BLOCK, payload, "a")
        assert out == [behind.chain_request("a")]
        assert len(behind.state.mempool) == 1
        [(_, reply, _)] = ahead.handle_message(*out[0][:2], "b")
        behind.handle_message(MSG_CHAIN_RESPONSE, reply, "a")
        assert behind.chain.tip.hash == longer.tip.hash

    def test_orphan_connected_by_its_parent_is_pushed(self, miner, chains):
        # On a line a - b - c: b gets block 43, an orphan it asks a about,
        # then its parent 42, which it relays. The locator reply connects 43
        # and the blocks after it, and b pushes them on, so c is not left
        # one block short.
        chain, longer = chains
        a = NodeLogic("a", miner, NodeRole.CSP_MINER, longer)
        b = NodeLogic("b", miner, NodeRole.CSP_MINER, chain)
        c = NodeLogic("c", miner, NodeRole.CSP_MINER, chain)
        orphan, parent = longer.blocks[42], longer.blocks[41]
        pool_txs(b, longer.blocks[41:])
        pool_txs(c, longer.blocks[41:])
        request = b.handle_message(MSG_BLOCK, encode_compact_block(orphan), "a")
        assert request == [b.chain_request("a")]
        out = b.handle_message(MSG_BLOCK, encode_compact_block(parent), "a")
        assert out == [(MSG_BLOCK, encode_compact_block(parent), BROADCAST)]
        c.handle_message(*out[0][:2], "b")
        [(_, reply, _)] = a.handle_message(*request[0][:2], "b")
        out = b.handle_message(MSG_CHAIN_RESPONSE, reply, "a")
        assert out == [(MSG_CHAIN_RESPONSE, encode_blocks(longer.blocks[42:]), BROADCAST)]
        c.handle_message(*out[0][:2], "b")
        assert orphan.hash in c.chain.heights
        assert c.chain.tip.hash == longer.tip.hash

    def test_run_from_other_genesis_changes_nothing(self, miner, device, chains):
        chain, _ = chains
        other, _ = build_chain(keypair_for("other-miner"), device, [b"x", b"y", b"z"])
        stranger = NodeLogic("x", miner, NodeRole.CSP_MINER, other)
        logic = NodeLogic("b", miner, NodeRole.CSP_MINER, chain)
        assert logic.handle_message(MSG_CHAIN_RESPONSE, encode_blocks(other.blocks), "x") == []
        assert logic.chain == chain
        # A delta from the other chain draws a locator that matches nothing
        # there, so the exchange ends.
        out = logic.handle_message(MSG_CHAIN_RESPONSE, encode_blocks(other.blocks[2:]), "x")
        assert out == [logic.chain_request("x")]
        assert stranger.handle_message(*out[0][:2], "b") == []
        assert logic.chain == chain


class TestCompactBlocks:
    """A ``block-gossip`` payload holds the header and the tx ids; a node
    rebuilds the block from its mempool, or asks the sender with its
    locator when an id is not pooled."""

    @pytest.fixture
    def nodes(self, miner, device):
        """A node ``b`` at a 3-block chain, a node ``a`` one block ahead, and
        that block, which holds two anchors."""
        chain, _ = build_chain(miner, device, [b"x"])
        pool = Mempool()
        for label in (b"one", b"two"):
            pool.add(build_anchor_tx(sha256_digest(label), "dev", GENESIS_TS + 100, device), chain)
        block = mine_block(pool, chain.tip.header, 0, miner, GENESIS_TS + 100, chain.registered_nodes)
        ahead = chain.copy()
        ahead.connect(block)
        behind = NodeLogic("b", miner, NodeRole.CSP_MINER, chain)
        return behind, NodeLogic("a", miner, NodeRole.CSP_MINER, ahead), block

    def test_pooled_block_rebuilt_applied_and_relayed(self, nodes):
        behind, _, block = nodes
        pool_txs(behind, [block])
        payload = encode_compact_block(block)
        assert behind.handle_message(MSG_BLOCK, payload, "a") == [(MSG_BLOCK, payload, BROADCAST)]
        assert behind.chain.tip == block
        assert len(behind.state.mempool) == 0

    def test_block_on_best_dropped_without_request(self, nodes):
        _, ahead, block = nodes
        assert ahead.handle_message(MSG_BLOCK, encode_compact_block(block), "b") == []

    def test_miss_asks_sender_then_connects_from_reply(self, nodes):
        behind, ahead, block = nodes
        pool_txs(behind, [block])
        behind.state.mempool.evict(block.tx_ids[:1])
        tip = behind.chain.tip
        out = behind.handle_message(MSG_BLOCK, encode_compact_block(block), "a")
        assert out == [behind.chain_request("a")]
        assert behind.chain.tip == tip
        assert len(behind.state.mempool) == 1
        [(_, reply, _)] = ahead.handle_message(*out[0][:2], "b")
        assert decode_blocks(reply) == [block]
        behind.handle_message(MSG_CHAIN_RESPONSE, reply, "a")
        assert behind.chain.tip == block
        assert len(behind.state.mempool) == 0

    def test_malformed_payload_dropped(self, nodes):
        behind, _, block = nodes
        pool_txs(behind, [block])
        raw = encode_compact_block(block)
        tip = behind.chain.tip
        for bad in (raw[:-1], raw[:40], raw + b"\x00", b"\x02" + raw[1:]):
            assert behind.handle_message(MSG_BLOCK, bad, "a") == []
        assert behind.chain.tip == tip
        assert len(behind.state.mempool) == 2

    def test_ids_off_the_header_root_rejected_not_relayed(self, nodes):
        behind, _, block = nodes
        pool_txs(behind, [block])
        statuses = []
        apply_block = behind.state.apply_block

        def recording(rebuilt):
            statuses.append(apply_block(rebuilt))
            return statuses[-1]

        behind.state.apply_block = recording
        raw = encode_compact_block(block)
        swapped = raw[: 1 + HEADER_LEN + 4] + block.tx_ids[1] + block.tx_ids[0]
        tip = behind.chain.tip
        assert behind.handle_message(MSG_BLOCK, swapped, "a") == []
        assert statuses == ["rejected:merkle-mismatch"]
        assert behind.chain.tip == tip
        assert len(behind.state.mempool) == 2


class TestSeen:
    def test_seen_forgets_oldest_first(self, miner, monkeypatch):
        monkeypatch.setattr(node_module, "_SEEN_CAP", 3)
        chain = validate_chain([make_genesis([miner], GENESIS_TS)])
        logic = NodeLogic("n", miner, NodeRole.CSP_MINER, chain)
        payloads = [b"payload %d" % i for i in range(4)]
        assert [logic._mark_seen(p) for p in payloads] == [False] * 4
        assert [logic._mark_seen(p) for p in payloads[1:]] == [True] * 3
        assert logic._mark_seen(payloads[0]) is False


class TestTxRelay:
    """A gossiped tx is relayed only when the pool admits it."""

    @pytest.fixture
    def logic(self, miner, device):
        chain, _ = build_chain(miner, device, [])
        logic = NodeLogic("m", miner, NodeRole.CSP_MINER, chain)
        logic.state.mempool = Mempool(capacity=1)
        return logic

    @staticmethod
    def anchor(device, label):
        return build_anchor_tx(sha256_digest(label), "dev", GENESIS_TS + 50, device)

    def test_tx_a_full_pool_refuses_is_not_relayed(self, logic, device):
        first, second = self.anchor(device, b"first"), self.anchor(device, b"second")
        assert logic.handle_message(MSG_TX, first.raw, "peer") == [(MSG_TX, first.raw, BROADCAST)]
        assert logic.handle_message(MSG_TX, second.raw, "peer") == []
        assert second.id not in logic.state.mempool

    def test_tx_already_pooled_is_not_relayed(self, logic, device):
        tx = self.anchor(device, b"pooled")
        assert logic.state.mempool.add(tx, logic.chain) == "accepted"
        assert logic.handle_message(MSG_TX, tx.raw, "peer") == []


class TestRolePolicy:
    def test_stakeholder_never_mines(self, miner, stakeholder):
        chain = validate_chain([make_genesis([miner], GENESIS_TS)])
        logic = NodeLogic("s", stakeholder, NodeRole.STAKEHOLDER, chain)
        record = LogRecord(raw=b"work", source_id="m", capture_timestamp=GENESIS_TS + 1)
        logic.state.mempool.add(build_anchor_for_record(record, miner), chain)
        assert len(logic.state.mempool) == 1
        assert logic.maybe_mine(GENESIS_TS + 2) is None

    def test_device_never_mines(self, miner, device):
        chain = validate_chain([make_genesis([miner], GENESIS_TS)])
        logic = NodeLogic("d", device, NodeRole.DEVICE, chain)
        record = LogRecord(raw=b"work", source_id="m", capture_timestamp=GENESIS_TS + 1)
        logic.state.mempool.add(build_anchor_for_record(record, miner), chain)
        assert logic.maybe_mine(GENESIS_TS + 2) is None


class TestAnchorReplay:
    """A tx already on the best chain is refused at admission, so a node
    never anchors the same log twice under one tx id."""

    def test_gossiped_mined_anchor_not_mined_again(self, miner, device):
        chain, _ = build_chain(miner, device, [b"evidence"])
        logic = NodeLogic("m", miner, NodeRole.CSP_MINER, chain)
        payload = chain.tip.transactions[0].raw
        assert logic.handle_message(MSG_TX, payload, "peer") == []
        assert len(logic.state.mempool) == 0
        assert logic.maybe_mine(GENESIS_TS + 50) is None
        assert len(verify_log(b"evidence", logic.chain).matches) == 1

    def test_local_resubmission_of_mined_anchor_refused(self, miner, device):
        chain, _ = build_chain(miner, device, [b"evidence"])
        logic = NodeLogic("m", miner, NodeRole.CSP_MINER, chain)
        assert lone_node(logic).submit("m", chain.tip.transactions[0]) == "not-pooled"
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
        assert (result.stdout, result.stderr) == ("", "rejected: unregistered-submitter\n")

        # The same anchor sent straight to the node, as a peer would send it,
        # is not pooled: once its key is registered, it is still not mined.
        evil = build_anchor_tx(sha256_digest(b"evil entry"), "x", GENESIS_TS + 50, intruder)
        send_txs(live_pair["miner_addr"], [evil])
        result = bloff_cli(
            "submit",
            "--key", str(live_pair["keys"]["miner"]),
            "--chain", live_pair["miner_addr"],
            "--register", intruder.public_key.hex(),
            "--role", "device",
        )
        assert result.returncode == 0, result.stderr
        wait_until(lambda: chain_height(live_pair["miner_addr"]) >= 2)
        log_file.write_bytes(b"honest entry\n")
        result = bloff_cli(
            "submit",
            "--key", str(intruder_key),
            "--chain", live_pair["miner_addr"],
            "--log", str(log_file),
        )
        assert result.returncode == 0, result.stderr
        wait_until(lambda: chain_height(live_pair["miner_addr"]) >= 3)
        blocks = fetch_chain(live_pair["miner_addr"])
        assert evil.id not in {txid for block in blocks for txid in block.tx_ids}


@pytest.fixture
def loop_node(tmp_path, miner):
    """Start a ``LiveNode`` in this process on a genesis of ``miner``, its
    ``run()`` on a thread of its own; every node started is stopped and
    joined at teardown."""
    genesis = make_genesis([miner], GENESIS_TS)
    started = []

    def start(name, role, keypair, peers=()):
        path = tmp_path / f"{name}.jsonl"
        write_chain(str(path), [genesis])
        address = f"127.0.0.1:{free_port()}"
        config = NodeConfig(role, "unused.key", str(path), listen=address, peers=list(peers))
        node = LiveNode(config, keypair, BlockStore.open(str(path), keypair))
        thread = threading.Thread(target=node.run)
        thread.start()
        started.append((node, thread))
        wait_for_port(int(address.rsplit(":", 1)[1]))
        return node, thread, address

    yield start
    for node, _ in started:
        node.stop()
    for _, thread in started:
        thread.join(5)
        assert not thread.is_alive()


def connect(address):
    host, port = address.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=5)
    sock.settimeout(5)
    return sock


class TestEventLoop:
    """``LiveNode.run()`` is the whole node: it starts no thread."""

    def test_two_nodes_gossip_a_tx_and_a_block_on_one_thread_each(
        self, loop_node, miner, device, stakeholder
    ):
        before = threading.active_count()
        a, _, addr_a = loop_node("a", NodeRole.CSP_MINER, miner)
        b, _, addr_b = loop_node("b", NodeRole.STAKEHOLDER, stakeholder, peers=[addr_a])

        def on_two_threads(predicate):
            assert threading.active_count() == before + 2
            return predicate()

        wait_until(lambda: on_two_threads(lambda: any(c.connected for c in b._conns)))
        # The tx reaches the miner only as b's gossip; the block reaches b
        # only as the miner's.
        tx = build_registration_tx(device.public_key, NodeRole.DEVICE, miner)
        send_txs(addr_b, [tx])
        wait_until(lambda: on_two_threads(lambda: b.store.chain.height == 2))
        assert b.store.chain.tip.transactions == (tx,)
        assert a.logic.chain.tip.hash == b.logic.chain.tip.hash
        assert threading.active_count() == before + 2

    def test_stop_from_another_thread_closes_every_socket(self, loop_node, miner):
        with socket.create_server(("127.0.0.1", 0)) as peer:
            peer.settimeout(5)
            node, thread, address = loop_node(
                "a", NodeRole.CSP_MINER, miner, peers=[f"127.0.0.1:{peer.getsockname()[1]}"]
            )
            dialled = peer.accept()[0]
            client = connect(address)
        with dialled, client:
            from_dial, from_client = (
                read_frames(sock, time.monotonic() + 5) for sock in (dialled, client)
            )
            assert next(from_dial)[0] == MSG_CHAIN_REQUEST
            client.sendall(encode_frame(MSG_CHAIN_REQUEST, b""))
            assert next(from_client)[0] == MSG_CHAIN_RESPONSE
            node.stop()
            thread.join(1.0)
            assert not thread.is_alive()
            assert list(from_dial) == list(from_client) == []
        assert node._conns == []
        with pytest.raises(ConnectionRefusedError):
            connect(address)

    def test_peer_sending_half_a_frame_is_dropped(self, loop_node, miner):
        _, _, address = loop_node("a", NodeRole.CSP_MINER, miner)
        with connect(address) as half:
            half.sendall(encode_frame(MSG_TX, bytes(40))[:20])
            half.shutdown(socket.SHUT_WR)
            assert half.recv(1) == b""
        assert len(fetch_chain(address)) == 1

    @pytest.mark.parametrize("header", BAD_HEADERS, ids=range(len(BAD_HEADERS)))
    def test_bad_header_closes_only_its_own_connection(self, loop_node, miner, header):
        """The node closes the connection that sent a bad header, and serves
        a client connected before it and one connected after it."""
        _, thread, address = loop_node("a", NodeRole.CSP_MINER, miner)
        with connect(address) as good, connect(address) as bad:
            bad.sendall(header)
            assert bad.recv(1 << 16) == b""
            good.sendall(encode_frame(MSG_CHAIN_REQUEST, b""))
            assert next(read_frames(good, time.monotonic() + 5))[0] == MSG_CHAIN_RESPONSE
        assert len(fetch_chain(address)) == 1
        assert thread.is_alive()

    @staticmethod
    def flood(address, count=30_000, seconds=2.0):
        """A client that writes ``count`` empty ``chain-request``s, as far as
        the node reads them within ``seconds`` or until it drops the client,
        and never reads a reply."""
        sock = connect(address)
        sock.setblocking(False)
        data = memoryview(encode_frame(MSG_CHAIN_REQUEST, b"") * count)
        deadline = time.monotonic() + seconds
        while data and time.monotonic() < deadline:
            try:
                data = data[sock.send(data) :]
            except BlockingIOError:
                time.sleep(0.001)
            except OSError:  # dropped
                break
        return sock

    def test_peer_that_does_not_read_holds_up_no_other(self, loop_node, miner):
        """A client floods requests and reads no reply: another client's
        ``fetch_chain`` is still answered within 3 s, and ``stop()`` ends
        ``run()`` promptly."""
        node, thread, address = loop_node("a", NodeRole.CSP_MINER, miner)
        with self.flood(address):
            assert len(fetch_chain(address, timeout=3.0)) == 1
            node.stop()
            thread.join(1.0)
            assert not thread.is_alive()

    def test_peer_past_the_unsent_cap_is_dropped(self, loop_node, miner, monkeypatch):
        """With the cap at 0, a client that floods requests and reads no
        reply is dropped once its socket takes no more, and a reply still
        goes out whole to a client that reads."""
        monkeypatch.setattr(node_module, "MAX_UNSENT_BYTES", 0)
        node, thread, address = loop_node("a", NodeRole.CSP_MINER, miner)
        with self.flood(address, count=150_000):
            wait_until(lambda: not node._conns, timeout=5.0)
            assert len(fetch_chain(address, timeout=3.0)) == 1
        assert thread.is_alive()

    def test_failed_chain_write_leaves_the_node_serving(
        self, loop_node, miner, device, stakeholder, monkeypatch
    ):
        """A chain-file write that raises OSError (a failed fsync, after the
        lines were written) does not end ``run()``: the node moves, serves
        on, and makes the file hold its chain once a later handled line
        finds the disk writable again, not filing the same blocks twice."""
        node, thread, address = loop_node("a", NodeRole.STAKEHOLDER, stakeholder)
        chain, _ = build_chain(miner, device, [b"a", b"b"])
        response = encode_frame(MSG_CHAIN_RESPONSE, encode_blocks(chain.blocks))
        write_lines = store_module._write_lines

        def failing_fsync(path, lines, replace=False):
            write_lines(path, lines, replace)
            raise OSError(5, "Input/output error")

        with monkeypatch.context() as patch:
            patch.setattr(store_module, "_write_lines", failing_fsync)
            with connect(address) as peer:
                peer.sendall(response)
                wait_until(lambda: node.logic.chain.height == chain.height)
                assert thread.is_alive()
                assert fetch_chain(address) == chain.blocks
        assert fetch_chain(address) == chain.blocks  # a handled line: the file is written
        wait_until(lambda: load_chain(node.store.path).blocks == node.logic.chain.blocks)
        assert thread.is_alive()


def serve_once(data):
    """Serve one connection: read its request, then send ``data`` and close.
    Returns the server's address and its thread."""
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(5)

    def serve():
        with server:
            conn, _ = server.accept()
            with conn:
                conn.recv(1 << 16)
                conn.sendall(data)

    thread = threading.Thread(target=serve)
    thread.start()
    return f"127.0.0.1:{server.getsockname()[1]}", thread


def test_fetch_chain_skips_frames_of_other_kinds(miner):
    genesis = make_genesis([miner], GENESIS_TS)
    gossip = encode_frame(MSG_TX, b"tx") + encode_frame(MSG_BLOCK, b"")
    address, thread = serve_once(gossip + encode_frame(MSG_CHAIN_RESPONSE, encode_blocks([genesis])))
    assert fetch_chain(address, timeout=5) == [genesis]
    thread.join(5)


def test_fetch_chain_times_out_on_a_node_that_sends_one_byte_at_a_time():
    """A node that sends a byte every 0.2 s gets no fresh timeout per byte:
    ``fetch_chain`` raises TimeoutError once its own timeout has passed."""
    frame = encode_frame(MSG_TX, bytes(20))
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(5)
    stop = threading.Event()

    def trickle():
        with server, server.accept()[0] as conn, contextlib.suppress(OSError):
            for byte in frame:
                if stop.wait(0.2):
                    break
                conn.sendall(bytes([byte]))

    thread = threading.Thread(target=trickle)
    thread.start()
    start = time.monotonic()
    try:
        with pytest.raises(TimeoutError):
            fetch_chain(f"127.0.0.1:{server.getsockname()[1]}", timeout=1)
        assert time.monotonic() - start < 2
    finally:
        stop.set()
        thread.join(5)


@pytest.mark.parametrize("header", BAD_HEADERS, ids=range(len(BAD_HEADERS)))
def test_fetch_chain_raises_value_error_at_a_bad_header(miner, header):
    genesis = make_genesis([miner], GENESIS_TS)
    address, thread = serve_once(header + encode_frame(MSG_CHAIN_RESPONSE, encode_blocks([genesis])))
    with pytest.raises(ValueError, match="bad frame header"):
        fetch_chain(address, timeout=5)
    thread.join(5)
