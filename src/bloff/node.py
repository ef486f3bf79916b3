"""Runnable node roles: one state machine, two transports.

``NodeLogic`` is the transport-agnostic message handler shared verbatim by
the deterministic in-process simulator and the live TCP runtime, so both
modes exercise identical behavior. The live runtime wraps it in a single
serialized event loop: inbound gossip, submissions and mining all pass
through one queue, and only the loop's thread reads or moves the chain.

Wire protocol (live mode): newline-delimited JSON over TCP, one message per
line, ``{"kind": ..., "payload": "<hex>", "from": ..., "to": ...}`` with the
same four kinds as the simulator fabric.

A ``block-gossip`` payload is a compact block, the header and the tx ids
(``encode_compact_block``): each tx has already crossed the edge as
``tx-gossip``, so the receiver rebuilds the block from its mempool. A
``chain-response`` carries blocks with their txs in full.

A ``chain-request`` payload is a block locator: 32-byte best-chain hashes,
tip first and genesis last, at most ``LOCATOR_MAX_HASHES``. The reply holds
only the blocks after the highest best-chain block the locator names; a
locator whose last hash is not the responder's genesis gets none. An empty
payload asks for the whole chain. The locator request is the only way a node
gets a block whose parent or one of whose txs it lacks: such a gossiped
block, or a pushed run on such a parent, draws one to its sender, and the
node holds nothing meanwhile. A gossiped block is relayed only when it
becomes the best tip, and a run only as the blocks the best chain gained.
"""

from __future__ import annotations

import json
import logging
import os
import queue
import socket
import threading
import time
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass, field

from .consensus import MiningError, NodeState, mine_block
from .crypto import DIGEST_LEN, ZERO_DIGEST, KeyPair, sha256_digest
from .ledger import (
    Block,
    Chain,
    NodeRole,
    Transaction,
    TxDecodeError,
    block_hash,
    decode_blocks,
    decode_compact_block,
    decode_tx,
    encode_blocks,
    encode_compact_block,
    tx_context_reason,
    verify_tx,
)
from .store import BlockStore

logger = logging.getLogger(__name__)

MSG_TX = "tx-gossip"
MSG_BLOCK = "block-gossip"
MSG_CHAIN_REQUEST = "chain-request"
MSG_CHAIN_RESPONSE = "chain-response"

BROADCAST = "*"

# An inbox event kind that no wire line decodes to: a new outbound connection.
_CONNECTED = object()

_SEEN_CAP = 100_000

# At doubling distances 64 hashes span over 2**50 blocks, so no real chain's
# locator reaches this cap; it bounds what a peer may send.
LOCATOR_MAX_HASHES = 64


@dataclass
class NodeConfig:
    role: NodeRole
    key_path: str
    chain_path: str
    difficulty: int = 0
    listen: str | None = None  # "host:port"
    peers: list[str] = field(default_factory=list)


def default_home() -> str:
    return os.environ.get("BLOFF_HOME", ".")


class NodeLogic:
    """Role-aware node behavior over a NodeState, independent of transport.

    Handlers return outbound messages as ``(kind, payload, destination)``
    tuples, destination being a node id or ``"*"`` for all neighbors; the
    transports send a reaction's ``"*"`` to all but the sender.
    """

    def __init__(
        self,
        node_id: str,
        keypair: KeyPair,
        role: NodeRole,
        chain: Chain,
        difficulty: int = 0,
    ):
        self.node_id = node_id
        self.keypair = keypair
        self.role = role
        self.difficulty = difficulty
        self.state = NodeState(best=chain)
        self._seen: OrderedDict[bytes, None] = OrderedDict()

    # -- helpers ------------------------------------------------------------

    @property
    def chain(self) -> Chain:
        return self.state.best

    def _mark_seen(self, payload: bytes) -> bool:
        """Dedup flood gossip by payload hash; True when already seen. Past
        ``_SEEN_CAP`` hashes, the oldest is forgotten first."""
        key = bytes(sha256_digest(payload))
        if key in self._seen:
            return True
        self._seen[key] = None
        if len(self._seen) > _SEEN_CAP:
            self._seen.popitem(last=False)
        return False

    def chain_request(self, dest: str = BROADCAST) -> tuple[str, bytes, str]:
        """Ask ``dest`` for the blocks this node lacks. The payload is the
        block locator of the best chain: the tip, its nine nearest ancestors,
        then ancestors at doubling distances, and genesis last."""
        blocks = self.chain.blocks
        hashes, index, step = [], len(blocks) - 1, 1
        while index > 0 and len(hashes) < LOCATOR_MAX_HASHES - 1:
            hashes.append(blocks[index].hash)
            if len(hashes) >= 10:
                step *= 2
            index -= step
        hashes.append(blocks[0].hash)
        return (MSG_CHAIN_REQUEST, b"".join(hashes), dest)

    # -- local submission ----------------------------------------------------

    def submit_tx(self, tx: Transaction) -> tuple[bool, str | None]:
        """Admit a locally submitted transaction after full context checks.

        Unlike gossip admission, local submission enforces the registry rules
        up front so an unregistered or verify-only key gets an actionable
        rejection instead of a transaction stuck in the pool.
        """
        reason = verify_tx(tx, self.state.mempool.verified)
        if reason is None:
            reason = tx_context_reason(tx, self.chain.registered_nodes)
        if reason is not None:
            return False, reason
        status = self.state.mempool.add(tx, self.chain.tx_ids)
        if status in ("accepted", "duplicate"):
            self._mark_seen(tx.raw)
            return True, None
        return False, status

    def submit_messages(self, tx: Transaction) -> list[tuple[str, bytes, str]]:
        return [(MSG_TX, tx.raw, BROADCAST)]

    # -- mining ---------------------------------------------------------------

    def maybe_mine(self, timestamp: int) -> Block | None:
        """Mine one block if this node may and there is work; apply it locally."""
        if self.role != NodeRole.CSP_MINER:
            return None
        if len(self.state.mempool) == 0:
            return None
        try:
            block = mine_block(
                self.state.mempool,
                self.chain.tip.header,
                self.difficulty,
                self.keypair,
                timestamp,
                self.chain.registered_nodes,
            )
        except MiningError:
            return None
        status = self.state.apply_block(block)
        if status != "accepted-best":  # pragma: no cover - defensive
            logger.warning("own mined block not adopted: %s", status)
            return None
        self._mark_seen(encode_compact_block(block))
        return block

    def block_messages(self, block: Block) -> list[tuple[str, bytes, str]]:
        return [(MSG_BLOCK, encode_compact_block(block), BROADCAST)]

    # -- inbound messages ------------------------------------------------------

    def handle_message(
        self, kind: str, payload: bytes, sender: str
    ) -> list[tuple[str, bytes, str]]:
        if kind == MSG_TX:
            return self._handle_tx(payload)
        if kind == MSG_BLOCK:
            return self._handle_block(payload, sender)
        if kind == MSG_CHAIN_REQUEST:
            return self._handle_chain_request(payload, sender)
        if kind == MSG_CHAIN_RESPONSE:
            return self._handle_chain_response(payload, sender)
        logger.debug("%s: ignoring unknown message kind %r", self.node_id, kind)
        return []

    def _handle_tx(self, payload: bytes) -> list[tuple[str, bytes, str]]:
        if self._mark_seen(payload):
            return []
        try:
            tx = decode_tx(payload)
        except TxDecodeError as exc:
            logger.debug("%s: dropping undecodable tx: %s", self.node_id, exc.reason)
            return []
        # Context rules (registration ordering) are re-checked at mining time,
        # so structurally valid gossip is pooled even if not yet minable.
        if self.state.mempool.add(tx, self.chain.tx_ids).startswith("invalid"):
            return []
        return [(MSG_TX, payload, BROADCAST)]

    def _handle_block(self, payload: bytes, sender: str) -> list[tuple[str, bytes, str]]:
        if self._mark_seen(payload):
            return []
        try:
            header, txids = decode_compact_block(payload)
        except ValueError as exc:
            logger.debug("%s: dropping undecodable block: %s", self.node_id, exc)
            return []
        if block_hash(header) in self.chain.heights:
            return []
        txs = [self.state.mempool.get(txid) for txid in txids]
        # A block with a tx this node has not pooled, or on a parent it
        # lacks, is not relayed: the node asks the sender for the blocks
        # after its best chain, in full, and pushes the run it adopts.
        if None in txs:
            return [self.chain_request(sender)]
        status = self.state.apply_block(Block(header=header, transactions=tuple(txs)))
        if status == "orphaned":
            return [self.chain_request(sender)]
        if status != "accepted-best":
            logger.debug("%s: block not relayed: %s", self.node_id, status)
            return []
        return [(MSG_BLOCK, payload, BROADCAST)]

    def _handle_chain_request(self, payload: bytes, sender: str) -> list[tuple[str, bytes, str]]:
        blocks = self.chain.blocks
        if not payload:
            return [(MSG_CHAIN_RESPONSE, encode_blocks(blocks), sender)]
        if len(payload) % DIGEST_LEN or len(payload) > LOCATOR_MAX_HASHES * DIGEST_LEN:
            logger.debug("%s: dropping malformed locator", self.node_id)
            return []
        # A locator ends in its sender's genesis. One that ends in another
        # hash shares no block with this chain, and gets no reply.
        if payload[-DIGEST_LEN:] != blocks[0].hash:
            return []
        hashes = (payload[i : i + DIGEST_LEN] for i in range(0, len(payload), DIGEST_LEN))
        run = blocks[max(self.chain.heights.get(h, 0) for h in hashes) :]
        return [(MSG_CHAIN_RESPONSE, encode_blocks(run), sender)] if run else []

    def _handle_chain_response(self, payload: bytes, sender: str) -> list[tuple[str, bytes, str]]:
        try:
            blocks = decode_blocks(payload)
        except (ValueError, TxDecodeError) as exc:
            logger.debug("%s: dropping undecodable chain: %s", self.node_id, exc)
            return []
        # Only the blocks this node lacks are validated; if they change the
        # best tip, push the blocks the best chain gained, the new run from
        # the fork point with the old best, so the winner floods outward.
        added = self.state.adopt_chain(blocks)
        if added:
            return [(MSG_CHAIN_RESPONSE, encode_blocks(added), BROADCAST)]
        # A run that starts past a block this node lacks: ask the sender for
        # the gap. A genesis block has no parent to ask for.
        parent = blocks[0].header.prev_hash if blocks else ZERO_DIGEST
        if parent != ZERO_DIGEST and parent not in self.chain.heights:
            return [self.chain_request(sender)]
        return []


# ---------------------------------------------------------------------------
# Live TCP runtime
# ---------------------------------------------------------------------------


def encode_wire(kind: str, payload: bytes, from_id: str, to_id: str) -> bytes:
    obj = {"kind": kind, "payload": payload.hex(), "from": from_id, "to": to_id}
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


def decode_wire(line: bytes) -> tuple[str, bytes, str, str]:
    obj = json.loads(line.decode("utf-8"))
    return obj["kind"], bytes.fromhex(obj["payload"]), obj["from"], obj["to"]


def read_lines(sock: socket.socket) -> Iterator[bytes]:
    """Yield each non-empty line received on ``sock`` until EOF, without its
    newline; a partial line at EOF is dropped. Each byte is scanned once."""
    buf = bytearray()
    while data := sock.recv(1 << 16):
        scan = len(buf)  # the bytes before this hold no newline
        buf += data
        start = 0
        while (end := buf.find(b"\n", scan)) != -1:
            if end > start:
                yield bytes(buf[start:end])
            start = scan = end + 1
        del buf[:start]


class _Conn:
    """One bidirectional line connection, inbound or outbound."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.alive = True
        self._lock = threading.Lock()

    def send(self, data: bytes) -> bool:
        with self._lock:
            if not self.alive:
                return False
            try:
                self.sock.sendall(data)
                return True
            except OSError:
                self.close()
                return False

    def close(self) -> None:
        self.alive = False
        try:
            self.sock.close()
        except OSError:
            pass


class LiveNode:
    """A running node: TCP server, peer connections, one event loop thread.

    The chain and the mempool are read and moved only on the event loop
    thread; socket readers and the peer dialer only enqueue. Every
    connection is bidirectional: gossip flows to outbound peers and inbound
    connections alike, and replies travel back on the connection the request
    arrived on. Mining runs inline on the loop whenever the node is a
    csp-miner and has pending work.
    """

    def __init__(self, config: NodeConfig, keypair: KeyPair, store: BlockStore):
        from .crypto import node_id as short_id

        self.config = config
        self.store = store
        self.logic = NodeLogic(
            node_id=short_id(keypair.public_key),
            keypair=keypair,
            role=config.role,
            chain=store.chain,
            difficulty=config.difficulty,
        )
        self.inbox: queue.Queue = queue.Queue()
        self._conns: list[_Conn] = []
        self._conns_lock = threading.Lock()
        self._server: socket.socket | None = None
        self._stop = threading.Event()

    # -- transport ----------------------------------------------------------

    def _track(self, conn: _Conn) -> None:
        with self._conns_lock:
            self._conns = [c for c in self._conns if c.alive] + [conn]
        threading.Thread(target=self._read_conn, args=(conn,), daemon=True).start()

    def _serve(self) -> None:
        assert self._server is not None
        while not self._stop.is_set():
            try:
                sock, _ = self._server.accept()
            except OSError:
                return
            self._track(_Conn(sock))

    def _connect_peers(self) -> None:
        """Keep outbound connections to the configured peers alive."""
        established: dict[str, _Conn] = {}
        while not self._stop.is_set():
            for address in self.config.peers:
                current = established.get(address)
                if current is not None and current.alive:
                    continue
                host, port = address.rsplit(":", 1)
                try:
                    sock = socket.create_connection((host, int(port)), timeout=2)
                except OSError:
                    continue
                conn = _Conn(sock)
                established[address] = conn
                self._track(conn)
                # A fresh link is a chance to catch up on missed blocks. The
                # loop's thread, which owns the chain, builds the locator.
                self.inbox.put((_CONNECTED, b"", "", conn))
            self._stop.wait(1.0)

    def _read_conn(self, conn: _Conn) -> None:
        try:
            for line in read_lines(conn.sock):
                if self._stop.is_set() or not conn.alive:
                    break
                try:
                    kind, payload, from_id, _ = decode_wire(line)
                except (ValueError, KeyError) as exc:
                    logger.debug("dropping malformed wire line: %s", exc)
                    continue
                self.inbox.put((kind, payload, from_id, conn))
        except OSError:
            pass
        conn.close()

    def _send_out(self, messages, origin: _Conn | None = None) -> None:
        """Send handler output; a broadcast skips ``origin``, the connection
        the handled message came from, whose peer already holds it."""
        for kind, payload, dest in messages:
            data = encode_wire(kind, payload, self.logic.node_id, dest)
            if dest == BROADCAST:
                with self._conns_lock:
                    targets = [c for c in self._conns if c.alive and c is not origin]
                for conn in targets:
                    conn.send(data)
            elif origin is not None:
                origin.send(data)

    # -- persistence ----------------------------------------------------------

    def _persist_if_changed(self) -> None:
        best = self.logic.chain
        stored = self.store.chain
        if best.tip.hash == stored.tip.hash:
            return
        if stored.tip.hash in best.heights:
            for block in best.blocks[stored.height:]:
                self.store.append_block(block, self.logic.state.mempool.verified)
        else:
            self.store.replace_chain(best)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self.config.listen:
            host, port = self.config.listen.rsplit(":", 1)
            self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._server.bind((host, int(port)))
            self._server.listen(16)
            threading.Thread(target=self._serve, daemon=True).start()
        if self.config.peers:
            threading.Thread(target=self._connect_peers, daemon=True).start()

    def stop(self) -> None:
        self._stop.set()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
        with self._conns_lock:
            for conn in self._conns:
                conn.close()

    def run(self) -> None:
        """Serialized event loop; returns when ``stop()`` is called."""
        self.start()
        try:
            while not self._stop.is_set():
                try:
                    event = self.inbox.get(timeout=0.05)
                except queue.Empty:
                    event = None
                if event is not None:
                    kind, payload, from_id, conn = event
                    if kind is _CONNECTED:
                        kind, payload, dest = self.logic.chain_request()
                        conn.send(encode_wire(kind, payload, self.logic.node_id, dest))
                    else:
                        out = self.logic.handle_message(kind, payload, from_id)
                        self._persist_if_changed()
                        self._send_out(out, origin=conn)
                mined = self.logic.maybe_mine(int(time.time()))
                if mined is not None:
                    logger.info(
                        "mined block %s at height %d",
                        mined.hash.hex()[:16],
                        self.logic.chain.height,
                    )
                    self._persist_if_changed()
                    self._send_out(self.logic.block_messages(mined))
        finally:
            self.stop()


def run_node(config: NodeConfig) -> None:
    """Load keys and chain, then run the node until interrupted.

    Startup failures (unreadable key, invalid chain file) raise; the CLI
    turns them into a nonzero exit with the reason.
    """
    from .crypto import load_keypair

    keypair = load_keypair(config.key_path)
    store = BlockStore.open(config.chain_path)
    node = LiveNode(config, keypair, store)
    try:
        node.run()
    except KeyboardInterrupt:
        node.stop()


# ---------------------------------------------------------------------------
# Lightweight client helpers (used by the CLI to talk to a running node)
# ---------------------------------------------------------------------------


def fetch_chain(address: str, timeout: float = 10.0) -> list[Block]:
    """Ask a running node for its full best chain.

    The connection may also carry unrelated gossip the node broadcasts while
    we wait; skip anything that is not the chain response.
    """
    host, port = address.rsplit(":", 1)
    deadline = time.monotonic() + timeout
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(encode_wire(MSG_CHAIN_REQUEST, b"", "client", BROADCAST))
        sock.settimeout(timeout)
        for line in read_lines(sock):
            kind, payload, _, _ = decode_wire(line)
            if kind == MSG_CHAIN_RESPONSE:
                return decode_blocks(payload)
            if time.monotonic() >= deadline:
                break
    raise TimeoutError(f"no chain response from {address}")


def send_txs(address: str, txs: list[Transaction], timeout: float = 10.0) -> None:
    """Gossip signed transactions to a running node."""
    host, port = address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        for tx in txs:
            sock.sendall(encode_wire(MSG_TX, tx.raw, "client", BROADCAST))
