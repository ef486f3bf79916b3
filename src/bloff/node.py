"""Runnable node roles: one state machine, two transports.

``NodeLogic`` is the transport-agnostic message handler shared verbatim by
the deterministic in-process simulator and the live TCP runtime, so both
modes exercise identical behavior. The live runtime drives it from one
``selectors`` loop on one thread, which owns every socket, the peer dials,
mining and the chain: each frame a peer completes is handled, persisted
and answered before the next is read. What the node sends is queued on
each connection and written as its socket takes it, so a peer that does
not read holds up no other; past ``MAX_UNSENT_BYTES`` it is dropped.

Wire protocol (live mode): one binary frame per message over TCP, a header
``>BBI`` (the wire version 2, the kind's index in ``KINDS``, the payload
length) then the payload as it is. A bad header closes its connection.
Frames name no sender: a reply goes back on its request's connection.

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

import contextlib
import logging
import os
import selectors
import socket
import struct
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
)
from .store import BlockStore, writer_lock

logger = logging.getLogger(__name__)

MSG_TX = "tx-gossip"
MSG_BLOCK = "block-gossip"
MSG_CHAIN_REQUEST = "chain-request"
MSG_CHAIN_RESPONSE = "chain-response"

BROADCAST = "*"

_SEEN_CAP = 100_000

# At doubling distances 64 hashes span over 2**50 blocks, so no real chain's
# locator reaches this cap; it bounds what a peer may send.
LOCATOR_MAX_HASHES = 64

# A peer that still has more unsent bytes than this when another message is
# queued for it is not reading, and is dropped. The check comes before the
# message is queued, so one reply of any size, the whole chain too, fits.
MAX_UNSENT_BYTES = 16 << 20


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
        key = sha256_digest(payload)
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
        return self._handle_chain_response(payload, sender)

    def _handle_tx(self, payload: bytes) -> list[tuple[str, bytes, str]]:
        if self._mark_seen(payload):
            return []
        try:
            tx = decode_tx(payload)
        except TxDecodeError as exc:
            logger.debug("%s: dropping undecodable tx: %s", self.node_id, exc.reason)
            return []
        # Only a tx the pool admits is relayed: not one it holds, one out of
        # context on the best chain, or one it has no room for.
        if self.state.mempool.add(tx, self.chain) != "accepted":
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


WIRE_VERSION = 2
_FRAME_HEADER = struct.Struct(">BBI")  # version, kind, payload length
KINDS = (MSG_TX, MSG_BLOCK, MSG_CHAIN_REQUEST, MSG_CHAIN_RESPONSE)  # by kind byte


def encode_frame(kind: str, payload: bytes) -> bytes:
    return _FRAME_HEADER.pack(WIRE_VERSION, KINDS.index(kind), len(payload)) + payload


def split_frames(buf: bytearray, data: bytes) -> list[tuple[str, bytes]]:
    """Append ``data`` to ``buf`` and return the kind and payload of each
    frame it completes; the partial frame stays in ``buf``. A header of
    another version or kind raises ValueError: nothing after it can be
    read."""
    buf += data
    frames, start = [], 0
    while len(buf) - start >= _FRAME_HEADER.size:
        version, kind, length = _FRAME_HEADER.unpack_from(buf, start)
        if version != WIRE_VERSION or kind >= len(KINDS):
            raise ValueError(f"bad frame header: version {version}, kind {kind}")
        end = start + _FRAME_HEADER.size + length
        if end > len(buf):
            break
        frames.append((KINDS[kind], bytes(buf[start + _FRAME_HEADER.size : end])))
        start = end
    del buf[:start]
    return frames


def read_frames(sock: socket.socket, deadline: float) -> Iterator[tuple[str, bytes]]:
    """Yield the kind and payload of each frame received on ``sock`` until
    EOF; a partial frame at EOF is dropped. Raises ValueError at a bad
    header, and TimeoutError once ``time.monotonic()`` reaches ``deadline``:
    each ``recv`` waits only for the time left."""
    buf = bytearray()
    while (left := deadline - time.monotonic()) > 0:
        sock.settimeout(left)
        if not (data := sock.recv(1 << 16)):
            return
        yield from split_frames(buf, data)
    raise TimeoutError("read deadline passed")


class _Conn:
    """One peer connection on the loop: its non-blocking socket, the partial
    frame it has sent, the bytes queued for it that its socket has not yet
    taken, and, for a dial, the peer's address. A dial is not ``connected``
    until its socket turns writable, nor is any connection once dropped. A
    connection with bytes queued is watched for writability too."""

    def __init__(self, sock: socket.socket, address: str | None = None):
        self.sock = sock
        self.address = address
        self.connected = address is None
        self.partial = bytearray()
        self.unsent = bytearray()


class LiveNode:
    """A running node: one event loop, on the thread that calls ``run()``.

    The loop owns the listening socket, every peer connection, the peer
    dials, mining and the chain. Every connection is bidirectional: gossip
    flows to dialled peers and inbound connections alike, and replies travel
    back on the connection the request arrived on. Mining runs inline on the
    loop whenever the node is a csp-miner and has pending work. A connection
    that sends a bad frame header is closed.

    The store writes the node's own best chain, which it holds as
    ``store.chain``: after each handled frame and each mined block,
    ``store.sync`` appends the blocks the chain gained, or rewrites the file
    on a reorg. Each block is validated once, by ``NodeLogic``, so a store
    opened with the node's key names the tip in its checkpoint after each
    sync.
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
        store.chain = self.logic.chain  # the node's own copy, moved in place
        self._conns: list[_Conn] = []
        self._stopped = False

    # -- transport ----------------------------------------------------------

    def _add(self, conn: _Conn, events: int) -> None:
        self._conns.append(conn)
        self._selector.register(conn.sock, events, conn)

    def _drop(self, conn: _Conn) -> None:
        if conn in self._conns:
            self._conns.remove(conn)
            conn.connected = False
            self._selector.unregister(conn.sock)
            conn.sock.close()

    def _send(self, conn: _Conn, data: bytes = b"") -> None:
        """Queue ``data`` on ``conn`` and send what its socket takes of the
        queue, watching the socket for room while bytes are left. A failed
        send drops ``conn``, as does ``data`` for a peer that has more than
        ``MAX_UNSENT_BYTES`` unsent."""
        waiting = bool(conn.unsent)
        if data and len(conn.unsent) > MAX_UNSENT_BYTES:
            self._drop(conn)
            return
        conn.unsent += data
        try:
            del conn.unsent[: conn.sock.send(conn.unsent)]
        except BlockingIOError:
            pass
        except OSError:
            self._drop(conn)
            return
        if waiting != bool(conn.unsent):
            events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.unsent else 0)
            self._selector.modify(conn.sock, events, conn)

    def _accept(self, server: socket.socket) -> None:
        try:
            sock, _ = server.accept()
        except OSError:
            return
        sock.setblocking(False)
        self._add(_Conn(sock), selectors.EVENT_READ)

    def _dial_peers(self) -> None:
        """Dial each configured peer that has no connection from this node,
        without blocking: the dial ends when its socket turns writable."""
        dialled = {conn.address for conn in self._conns}
        for address in self.config.peers:
            if address in dialled:
                continue
            host, port = address.rsplit(":", 1)
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setblocking(False)
            with contextlib.suppress(OSError):  # a failed dial is seen when it ends
                sock.connect_ex((host, int(port)))
            self._add(_Conn(sock, address), selectors.EVENT_WRITE)

    def _finish_dial(self, conn: _Conn) -> None:
        try:
            conn.sock.getpeername()
        except OSError:  # the dial failed
            self._drop(conn)
            return
        conn.connected = True
        self._selector.modify(conn.sock, selectors.EVENT_READ, conn)
        # A fresh link is a chance to catch up on missed blocks.
        kind, payload, _ = self.logic.chain_request()
        self._send(conn, encode_frame(kind, payload))

    def _read(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(1 << 16)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._drop(conn)
            return
        try:
            frames = split_frames(conn.partial, data)
        except ValueError as exc:
            logger.debug("closing a connection: %s", exc)
            self._drop(conn)
            return
        for kind, payload in frames:
            if not conn.connected:  # dropped by a send
                return
            out = self.logic.handle_message(kind, payload, "peer")
            self._sync()
            self._send_out(out, origin=conn)

    def _sync(self) -> None:
        """Write what the chain gained to the chain file. A failed write (a
        full disk) is logged, not raised: ``sync`` keeps what it did not
        write for its next call, after the next frame or block."""
        try:
            self.store.sync()
        except OSError as exc:
            logger.error("chain file write failed, to be retried: %s", exc)

    def _send_out(self, messages, origin: _Conn | None = None) -> None:
        """Send handler output; a broadcast skips ``origin``, the connection
        the handled message came from, whose peer already holds it. A
        connection that fails a send is dropped."""
        for kind, payload, dest in messages:
            data = encode_frame(kind, payload)
            targets = [origin]
            if dest == BROADCAST:
                targets = [c for c in self._conns if c.connected and c is not origin]
            for conn in targets:
                self._send(conn, data)

    # -- lifecycle ----------------------------------------------------------

    def stop(self) -> None:
        """Ask ``run()`` to return; safe from any thread."""
        self._stopped = True

    def run(self) -> None:
        """The event loop: serve, dial every second, read, mine and persist
        until ``stop()``, then close every socket."""
        self._selector = selectors.DefaultSelector()
        try:
            if self.config.listen:
                host, port = self.config.listen.rsplit(":", 1)
                server = socket.create_server((host, int(port)), backlog=16)
                self._selector.register(server, selectors.EVENT_READ)
            next_dial = 0.0
            while not self._stopped:
                if self.config.peers and time.monotonic() >= next_dial:
                    self._dial_peers()
                    next_dial = time.monotonic() + 1.0
                for key, events in self._selector.select(timeout=0.05):
                    conn = key.data
                    if conn is None:
                        self._accept(key.fileobj)
                    elif not conn.connected:
                        self._finish_dial(conn)
                    elif events & selectors.EVENT_WRITE:
                        self._send(conn)
                    else:
                        self._read(conn)
                mined = self.logic.maybe_mine(int(time.time()))
                if mined is not None:
                    logger.info(
                        "mined block %s at height %d",
                        mined.hash.hex()[:16],
                        self.logic.chain.height,
                    )
                    self._sync()
                    self._send_out(self.logic.block_messages(mined))
        finally:
            for key in self._selector.get_map().values():
                key.fileobj.close()
            self._conns.clear()
            self._selector.close()


def run_node(config: NodeConfig) -> None:
    """Load keys and chain, then run the node until interrupted.

    The node holds the chain file's writer lock until it stops. Startup
    failures (unreadable key, locked or invalid chain file) raise; the CLI
    turns them into a nonzero exit with the reason.
    """
    from .crypto import load_keypair

    keypair = load_keypair(config.key_path)
    with writer_lock(config.chain_path):
        node = LiveNode(config, keypair, BlockStore.open(config.chain_path, keypair))
        with contextlib.suppress(KeyboardInterrupt):
            node.run()


# ---------------------------------------------------------------------------
# Lightweight client helpers (used by the CLI to talk to a running node)
# ---------------------------------------------------------------------------


def fetch_chain(address: str, timeout: float = 10.0) -> list[Block]:
    """Ask a running node for its full best chain.

    The connection may also carry unrelated gossip the node broadcasts while
    we wait; skip any frame that is not the chain response. A bad frame
    header raises ValueError; no response within ``timeout`` seconds of the
    call, or none before the node closes the connection, raises
    TimeoutError.
    """
    host, port = address.rsplit(":", 1)
    deadline = time.monotonic() + timeout
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(encode_frame(MSG_CHAIN_REQUEST, b""))
        for kind, payload in read_frames(sock, deadline):
            if kind == MSG_CHAIN_RESPONSE:
                return decode_blocks(payload)
    raise TimeoutError(f"no chain response from {address}")


def send_txs(address: str, txs: list[Transaction], timeout: float = 10.0) -> None:
    """Gossip signed transactions to a running node."""
    host, port = address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        for tx in txs:
            sock.sendall(encode_frame(MSG_TX, tx.raw))
