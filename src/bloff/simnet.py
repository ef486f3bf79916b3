"""Deterministic in-process message fabric for multi-node testing.

Time advances in discrete ticks; every message delivery, drop decision and
node reaction happens inline in a fixed order, so a fixed seed, topology and
action script gives a byte-identical event trace on every run. Nodes run the
same ``NodeLogic`` state machine as the live TCP runtime; only the transport
differs. A node's only way in is a message: a ``register`` or ``submit``
action reaches its node as a ``tx-gossip`` frame, as ``bloff submit --chain
host:port`` sends one to a live node.

Scenario files (JSON) describe the topology, seed, partition/heal schedule
and per-node actions; ``run_scenario`` executes one and reports whether all
nodes converged to a single tip and identical anchor indexes.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass, field

from .consensus import Mempool
from .crypto import KeyPair, generate_keypair, sha256_digest
from .ingest import LogRecord, build_anchor_for_record
from .ledger import (
    NodeRole,
    Transaction,
    build_registration_tx,
    make_genesis,
    validate_chain,
)
from .node import BROADCAST, MSG_TX, NodeLogic


@dataclass
class SimNode:
    node_id: str
    role: NodeRole
    keypair: KeyPair
    logic: NodeLogic


class SimNetwork:
    """Undirected topology of nodes with per-edge latency and seeded drops.

    ``links`` maps each node to its neighbours' latencies, in id order.
    ``groups`` maps each node a partition lists to its group; the nodes it
    does not list share one implicit remainder group. ``_queue`` is a heap
    of ``(deliver tick, enqueue order, kind, payload, sender, recipient)``.
    """

    def __init__(self, seed: int = 0, drop_rate: float = 0.0, genesis_timestamp: int = 1_700_000_000):
        self.seed = seed
        self.drop_rate = drop_rate
        self.genesis_timestamp = genesis_timestamp
        self.rng = random.Random(seed)
        self.tick = 0
        self.nodes: dict[str, SimNode] = {}
        self.links: dict[str, dict[str, int]] = {}
        self.groups: dict[str, int] = {}
        self._queue: list[tuple[int, int, str, bytes, str, str]] = []
        self.events: list[str] = []
        self.delivered_count = 0
        self.captured_payloads: list[bytes] = []

    # -- topology -------------------------------------------------------------

    def add_node(self, node: SimNode) -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id: {node.node_id}")
        self.nodes[node.node_id] = node
        self.links[node.node_id] = {}

    def add_edge(self, a: str, b: str, latency: int = 1) -> None:
        if a not in self.nodes or b not in self.nodes:
            raise ValueError(f"unknown node in edge {a}-{b}")
        if a == b or latency < 1:
            raise ValueError("edges must join two distinct nodes with latency >= 1")
        for node_id, other in ((a, b), (b, a)):
            self.links[node_id] = dict(sorted({**self.links[node_id], other: latency}.items()))

    def set_partition(self, groups: list[list[str]]) -> None:
        """Sever all edges between groups until ``heal``. Unlisted nodes form
        one implicit remainder group."""
        group_of: dict[str, int] = {}
        for index, group in enumerate(groups):
            for node_id in group:
                if group_of.setdefault(node_id, index) != index:
                    raise ValueError(f"overlapping partition groups: {node_id}")
        self.groups = group_of
        self.events.append(f"t={self.tick} partition {[sorted(g) for g in groups]}")

    def heal(self) -> None:
        """Reconnect everything and make every node ask neighbors for the
        blocks it lacks."""
        self.groups = {}
        self.events.append(f"t={self.tick} heal")
        for node_id in sorted(self.nodes):
            self.send_from(node_id, [self.nodes[node_id].logic.chain_request()])

    # -- message plumbing ------------------------------------------------------

    def _enqueue(self, kind: str, payload: bytes, sender: str, recipient: str) -> None:
        deliver_tick = self.tick + self.links[sender][recipient]
        # Every enqueued payload is captured, so their count is the order.
        order = len(self.captured_payloads)
        heapq.heappush(self._queue, (deliver_tick, order, kind, payload, sender, recipient))
        self.captured_payloads.append(payload)

    def send_from(
        self, origin: str, outbound: list[tuple[str, bytes, str]], skip: str | None = None
    ) -> None:
        """Fan node-produced messages out to the topology.

        Broadcast goes to every current neighbor of the origin but ``skip``,
        the sender of the message the origin reacted to, which already holds
        it; direct messages need an existing edge to their target.
        """
        if origin not in self.nodes:
            raise ValueError(f"unknown node: {origin}")
        links = self.links[origin]
        for kind, payload, dest in outbound:
            if dest == BROADCAST:
                targets = [n for n in links if n != skip]
            else:
                targets = [dest] if dest in links else []
            for target in targets:
                self._enqueue(kind, payload, origin, target)

    def submit(self, node_id: str, tx: Transaction) -> str:
        """Hand ``tx`` to ``node_id`` as ``bloff submit --chain host:port``
        does: ``add_signed`` it to a scratch pool over the node's chain, then
        send the node ``tx.raw`` as a ``tx-gossip`` frame and fan out its
        reply. Returns "ok" when the node's pool holds the tx, else the
        scratch pool's reason, or "not-pooled" when the node's pool refused
        it."""
        logic = self.nodes[node_id].logic
        if (reason := Mempool(capacity=1).add_signed(tx, logic.chain)) is not None:
            return reason
        self.send_from(node_id, logic.handle_message(MSG_TX, tx.raw, "client"))
        return "ok" if tx.id in logic.state.mempool else "not-pooled"

    def step(self) -> int:
        """Advance one tick and deliver everything due, in enqueue order.

        Messages crossing a currently severed edge are dropped, as are
        seeded random drops. Receivers react inline; their outbound messages
        are enqueued for later ticks.
        """
        self.tick += 1
        delivered = 0
        while self._queue and self._queue[0][0] <= self.tick:
            _, _, kind, payload, sender, recipient = heapq.heappop(self._queue)
            if self.groups.get(sender, -1) != self.groups.get(recipient, -1):
                self.events.append(f"t={self.tick} sever-drop {kind} {sender}->{recipient}")
                continue
            if self.drop_rate > 0 and self.rng.random() < self.drop_rate:
                self.events.append(f"t={self.tick} drop {kind} {sender}->{recipient}")
                continue
            delivered += 1
            self.delivered_count += 1
            logic = self.nodes[recipient].logic
            before = logic.chain.tip.hash
            outbound = logic.handle_message(kind, payload, sender)
            after = logic.chain.tip.hash
            self.events.append(
                f"t={self.tick} deliver {kind} {sender}->{recipient}"
                f" payload={sha256_digest(payload).hex()[:12]}"
            )
            if after != before:
                self.events.append(
                    f"t={self.tick} {recipient} tip={after.hex()[:12]} height={logic.chain.height}"
                )
            self.send_from(recipient, outbound, skip=sender)
        return delivered

    def run_to_quiescence(self, max_ticks: int) -> None:
        while self._queue and self.tick < max_ticks:
            self.step()


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------


def sim_keypair(seed: int, node_id: str) -> KeyPair:
    """Per-node key derived from the scenario seed; stable across runs."""
    return generate_keypair(bytes(sha256_digest(f"bloff-sim:{seed}:{node_id}".encode())))


def build_sim(
    seed: int,
    node_specs: list[tuple[str, NodeRole]],
    edges: list[tuple[str, str, int]],
    difficulty: int = 0,
    genesis_timestamp: int = 1_700_000_000,
    drop_rate: float = 0.0,
) -> SimNetwork:
    """Assemble a network whose genesis registers every csp-miner node."""
    net = SimNetwork(seed=seed, drop_rate=drop_rate, genesis_timestamp=genesis_timestamp)
    keypairs = {node_id: sim_keypair(seed, node_id) for node_id, _ in node_specs}
    miners = [keypairs[node_id] for node_id, role in sorted(node_specs) if role == NodeRole.CSP_MINER]
    if not miners:
        raise ValueError("at least one csp-miner node is required")
    genesis = make_genesis(miners, genesis_timestamp)
    for node_id, role in node_specs:
        logic = NodeLogic(
            node_id=node_id,
            keypair=keypairs[node_id],
            role=role,
            chain=validate_chain([genesis]),
            difficulty=difficulty,
        )
        net.add_node(SimNode(node_id=node_id, role=role, keypair=keypairs[node_id], logic=logic))
    for a, b, latency in edges:
        net.add_edge(a, b, latency)
    return net


def _index_digest(logic: NodeLogic) -> str:
    """Stable fingerprint of a node's anchor index, for cross-node comparison."""
    entries = sorted(
        (log_hash.hex(), height, index)
        for log_hash, locations in logic.chain.anchor_index.items()
        for height, index in locations
    )
    return sha256_digest(json.dumps(entries).encode()).hex()


@dataclass
class ScenarioResult:
    report: dict
    events: list[str] = field(default_factory=list)


def load_scenario(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_scenario(scenario: dict, seed_override: int | None = None) -> ScenarioResult:
    """Execute a scripted multi-node scenario deterministically.

    Actions: register (sponsor admits another sim node), submit (a node
    anchors a log line), mine, partition, heal. Record timestamps derive
    from the genesis timestamp plus the tick, never from the wall clock.
    """
    seed = seed_override if seed_override is not None else int(scenario.get("seed", 0))
    node_specs = [(n["id"], NodeRole(n["role"])) for n in scenario["nodes"]]
    edges = [(e["a"], e["b"], int(e.get("latency", 1))) for e in scenario["edges"]]
    net = build_sim(
        seed=seed,
        node_specs=node_specs,
        edges=edges,
        difficulty=int(scenario.get("difficulty", 0)),
        genesis_timestamp=int(scenario.get("genesis_timestamp", 1_700_000_000)),
        drop_rate=float(scenario.get("drop_rate", 0.0)),
    )
    max_ticks = int(scenario.get("max_ticks", 100))
    by_tick: dict[int, list[dict]] = {}
    for action in scenario.get("actions", ()):
        by_tick.setdefault(int(action["tick"]), []).append(action)
    last_action_tick = max([0, *by_tick])

    while net.tick <= last_action_tick and net.tick < max_ticks:
        for action in by_tick.get(net.tick, ()):
            _apply_action(net, action)
        net.step()
    net.run_to_quiescence(max_ticks)

    tips = {node_id: node.logic.chain.tip.hash.hex() for node_id, node in net.nodes.items()}
    digests = {node_id: _index_digest(node.logic) for node_id, node in net.nodes.items()}
    converged = len(set(tips.values())) == 1 and len(set(digests.values())) == 1
    report = {
        "seed": seed,
        "ticks": net.tick,
        "enqueued": len(net.captured_payloads),
        "delivered": net.delivered_count,
        "converged": converged,
        "nodes": {
            node_id: {
                "tip": tips[node_id],
                "height": net.nodes[node_id].logic.chain.height,
                "anchors": sum(
                    len(v) for v in net.nodes[node_id].logic.chain.anchor_index.values()
                ),
                "index_digest": digests[node_id],
            }
            for node_id in sorted(net.nodes)
        },
    }
    return ScenarioResult(report=report, events=list(net.events))


def _apply_action(net: SimNetwork, action: dict) -> None:
    kind = action["type"]
    timestamp = net.genesis_timestamp + net.tick
    if kind == "partition":
        net.set_partition(action["groups"])
        return
    if kind == "heal":
        net.heal()
        return
    node = net.nodes[action["node"]]
    if kind == "register":
        target = net.nodes[action["target"]]
        tx = build_registration_tx(
            target.keypair.public_key, NodeRole(action["role"]), node.keypair
        )
        net.events.append(
            f"t={net.tick} action register {action['target']} via {node.node_id}"
            f" -> {net.submit(node.node_id, tx)}"
        )
    elif kind == "submit":
        raw = action["log"].encode("utf-8") if "log" in action else bytes.fromhex(action["log_hex"])
        record = LogRecord(raw=raw, source_id=node.node_id, capture_timestamp=timestamp)
        tx = build_anchor_for_record(record, node.keypair)
        net.events.append(
            f"t={net.tick} action submit {node.node_id}"
            f" log={record.log_hash.hex()[:12]} -> {net.submit(node.node_id, tx)}"
        )
    elif kind == "mine":
        block = node.logic.maybe_mine(timestamp)
        if block is None:
            net.events.append(f"t={net.tick} action mine {node.node_id} -> no-work")
        else:
            net.events.append(
                f"t={net.tick} action mine {node.node_id}"
                f" -> block={block.hash.hex()[:12]} height={node.logic.chain.height}"
            )
            net.send_from(node.node_id, node.logic.block_messages(block))
    else:
        raise ValueError(f"unknown scenario action: {kind}")
