"""The three workloads: anchor, verify and simnet.

Each workload is one client in a closed loop. ``setup`` returns the seconds
spent in program calls; ``round(k)`` runs round ``k`` of the op sequence
and returns one ``Op`` per unit operation. A round's inputs depend only on
the run seed and ``k``, so a traced replay of rounds 0..n-1 sees the same
inputs as the untraced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

import checks
import inputs

from bloff import simnet as simnet_mod
from bloff import store as store_mod
from bloff.cli import handle_command
from bloff.crypto import Digest, generate_keypair
from bloff.ledger import (
    Block,
    BlockHeader,
    NodeRole,
    block_hash,
    block_to_json_line,
    build_anchor_tx,
    build_registration_tx,
    make_genesis,
    merkle_root,
)
from bloff.simnet import run_scenario
from bloff.verify import court_recheck


@dataclass
class Op:
    seconds: float
    records: int
    final_blocks: int  # height of the chain this op leaves behind
    problems: list[str] = field(default_factory=list)


def cli(tracer, argv: list[str]) -> tuple[int, str, str]:
    """``bloff <argv>`` in-process, its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            code = handle_command(argv)
        else:
            code = tracer.span(f"cli.{argv[0]}", handle_command, argv)
    return code, out.getvalue(), err.getvalue()


def write_bytes(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# anchor: submit -> mine --all rounds against one growing chain file
# ---------------------------------------------------------------------------

# Batch sizes of one episode, in this order in every episode, so that each
# episode does the same work. The block cap is 100 txs, so the larger
# batches make one ``mine --all`` seal several blocks. An odd count puts the
# median op in the middle of one kind of op, not between two kinds.
ANCHOR_BATCHES = (60, 10, 200, 30, 140, 100, 80)
ANCHOR_DIFFICULTY = 8  # ~2^8 nonces at ~8 us each: a few ms per block


class AnchorWorkload:
    """A round is one episode: restore the chain file to the state setup
    left, then run one op per batch size. Whole episodes keep the chain
    lengths an op sees the same whatever the program's speed."""

    name = "anchor"
    setup_reps = 49

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self.bytes_persisted = 0

    def setup(self, rep: int) -> float:
        home = os.path.join(self.workdir, f"setup{rep}")
        os.makedirs(home)
        self.chain = os.path.join(home, "chain.jsonl")
        self.mempool = os.path.join(home, "mempool.jsonl")
        self.miner_key = os.path.join(home, "miner.key")
        self.device_key = os.path.join(home, "device.key")
        miner_seed = inputs.key_seed(self.seed, "anchor-miner").hex()
        device_seed = inputs.key_seed(self.seed, "anchor-device").hex()
        steps = [
            ["keygen", "--out", self.miner_key, "--seed-hex", miner_seed],
            ["keygen", "--out", self.device_key, "--seed-hex", device_seed],
            ["genesis", "--authority", self.miner_key, "--out", self.chain,
             "--timestamp", str(inputs.GENESIS_TS)],
        ]
        start = time.perf_counter()
        for argv in steps:
            code, out, err = cli(None, argv)
            if code != 0:
                raise RuntimeError(f"setup step {argv[0]} failed: {err}")
            if argv[0] == "keygen" and argv[2] == self.device_key:
                device_pub = out.split()[1]
        for argv in (
            ["submit", "--key", self.miner_key, "--chain", self.chain,
             "--register", device_pub, "--role", "device"],
            ["mine", "--key", self.miner_key, "--chain", self.chain,
             "--difficulty", str(ANCHOR_DIFFICULTY), "--timestamp", str(inputs.GENESIS_TS + 1)],
        ):
            code, out, err = cli(None, argv)
            if code != 0:
                raise RuntimeError(f"setup step {argv[0]} failed: {err}")
        seconds = time.perf_counter() - start
        with open(self.chain, "rb") as fh:
            self.snapshot = fh.read()
        return seconds

    def round(self, k: int) -> list[Op]:
        rng = inputs.op_rng(self.name, self.seed, k)
        write_bytes(self.chain, self.snapshot)
        write_bytes(self.mempool, b"")
        batch_path = os.path.join(self.workdir, "batch.log")
        source_id = f"dev-{self.seed % 1000}"
        episode_digests: list[bytes] = []
        ops = []
        for j, size in enumerate(ANCHOR_BATCHES):
            lines = [inputs.syslog_line(rng, f"{self.seed}-{k}-{j}-{i}") for i in range(size)]
            data = inputs.log_file(rng, lines)
            write_bytes(batch_path, data)
            before = os.path.getsize(self.chain)

            start = time.perf_counter()
            sub = cli(self.tracer, ["submit", "--key", self.device_key, "--chain", self.chain,
                                    "--log", batch_path, "--source-id", source_id])
            mine = cli(self.tracer, ["mine", "--key", self.miner_key, "--chain", self.chain,
                                     "--difficulty", str(ANCHOR_DIFFICULTY), "--all"])
            seconds = time.perf_counter() - start

            self.bytes_persisted += os.path.getsize(self.chain) - before
            records = checks.records_of_log(data)
            digests = [checks.sha256(r) for r in records]
            episode_digests.extend(digests)
            blocks, problems = checks.parse_chain_file(self.chain)
            problems += anchor_op_problems(sub, mine, digests, blocks, episode_digests,
                                           read_text(self.mempool))
            ops.append(Op(seconds, len(records), len(blocks), problems))
        return ops

    def bytes_per_record(self, records: int) -> float:
        """Chain-file bytes appended per record anchored."""
        return self.bytes_persisted / records


def anchor_op_problems(sub, mine, digests, blocks, episode_digests, mempool_text) -> list[str]:
    """One submit + mine round against hashes the benchmark computed itself."""
    problems = []
    if sub[0] != 0 or mine[0] != 0:
        problems.append(f"exit codes submit={sub[0]} mine={mine[0]}")
    try:
        printed = [line.split()[1] for line in sub[1].splitlines()]
        sealed = sum(json.loads(line)["txs"] for line in mine[1].splitlines())
    except (IndexError, ValueError, KeyError, TypeError):
        return problems + ["submit or mine printed a line of another form"]
    if printed != [d.hex() for d in digests]:
        problems.append("submit printed other log hashes than the batch's records")
    if sealed != len(digests):
        problems.append(f"mine sealed {sealed} txs for {len(digests)} records")
    if mempool_text:
        problems.append("mine --all left pending txs")
    problems.extend(checks.chain_problems(blocks))
    problems.extend(checks.exactly_once_problems(checks.anchored_digests(blocks), episode_digests))
    return problems


# ---------------------------------------------------------------------------
# verify: an investigator's verify calls against a fixed chain
# ---------------------------------------------------------------------------

VERIFY_ANCHORS = 2000
VERIFY_DEVICES = 3
VERIFY_TXS_PER_BLOCK = 100
VERIFY_REANCHOR_EVERY = 200  # every 200th line is anchored a second time


class VerifyWorkload:
    """One op is one ``bloff verify`` call; the chain is built in setup."""

    name = "verify"
    setup_reps = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.log_path = os.path.join(workdir, "presented.log")
        self.custody_path = os.path.join(workdir, "custody.jsonl")
        self.proof_path = os.path.join(workdir, "proof.json")
        self.tracer = None
        rng = inputs.op_rng(self.name, seed, -1)
        self.lines = [inputs.syslog_line(rng, f"{seed}-{i}") for i in range(VERIFY_ANCHORS)]
        self.line_of = {checks.sha256(line): line for line in self.lines}
        self.source_ids = [f"host-{rng.randrange(16 ** rng.randint(2, 8)):x}" for _ in range(VERIFY_DEVICES)]
        self.holders = [
            Ed25519PrivateKey.from_private_bytes(inputs.key_seed(seed, f"holder-{i}")) for i in range(3)
        ]

    def setup(self, rep: int) -> float:
        path = os.path.join(self.workdir, f"chain{rep}.jsonl")
        start = time.perf_counter()
        miner = generate_keypair(inputs.key_seed(self.seed, "verify-miner"))
        devices = [generate_keypair(inputs.key_seed(self.seed, f"verify-device-{i}"))
                   for i in range(VERIFY_DEVICES)]
        genesis = make_genesis([miner], inputs.GENESIS_TS)
        registrations = [build_registration_tx(d.public_key, NodeRole.DEVICE, miner) for d in devices]
        blocks = [genesis]
        blocks.append(_block_on(blocks[-1], registrations, inputs.GENESIS_TS + 1))
        anchors = []
        for i, line in enumerate(self.lines):
            ts = inputs.GENESIS_TS + 10 + i
            anchors.append(build_anchor_tx(Digest(checks.sha256(line)), self.source_ids[i % VERIFY_DEVICES],
                                           ts, devices[i % VERIFY_DEVICES]))
            if i % VERIFY_REANCHOR_EVERY == VERIFY_REANCHOR_EVERY - 1:
                j = i - VERIFY_REANCHOR_EVERY // 2
                anchors.append(build_anchor_tx(Digest(checks.sha256(self.lines[j])),
                                               self.source_ids[(j + 1) % VERIFY_DEVICES],
                                               ts, devices[(j + 1) % VERIFY_DEVICES]))
        for i in range(0, len(anchors), VERIFY_TXS_PER_BLOCK):
            chunk = anchors[i:i + VERIFY_TXS_PER_BLOCK]
            blocks.append(_block_on(blocks[-1], chunk, chunk[-1].capture_timestamp))
        store_mod.write_chain(path, blocks)
        chain = store_mod.load_chain(path)
        seconds = time.perf_counter() - start

        self.path, self.chain = path, chain
        self.blocks = checks.parse_chain_text(read_text(path))
        self.index = checks.anchor_index(self.blocks)
        self.bytes_per_anchor = os.path.getsize(path) / sum(len(v) for v in self.index.values())
        return seconds

    def bytes_per_record(self, records: int) -> float:
        """Chain-file bytes per anchor of the fixed chain."""
        return self.bytes_per_anchor

    def case(self, k: int):
        """The presented log and flags of op ``k``, and what it must print."""
        rng = inputs.op_rng(self.name, self.seed, k)
        height = len(self.blocks)
        kind = rng.choices(
            ["lf", "crlf", "bare", "tamper", "shallow", "proof", "custody"],
            weights=[20, 15, 15, 25, 13, 6, 6],
        )[0]
        min_conf = 1
        if kind == "shallow":
            # An anchor in one of the last three blocks, asked for deeper.
            recent = [(b.height, tx) for b in self.blocks[-3:] for tx in b.txs
                      if tx.kind == checks.KIND_ANCHOR]
            anchored_at, tx = rng.choice(recent)
            line = self.line_of[tx.log_hash]
            min_conf = height - anchored_at + 1 + rng.randint(1, 3)
        else:
            line = rng.choice(self.lines)
        if kind == "tamper":
            pos = rng.randrange(len(line))
            line = line[:pos] + bytes([line[pos] ^ rng.randint(1, 255)]) + line[pos + 1:]
        log = line + {"crlf": b"\r\n", "bare": b""}.get(kind, b"\n")
        if kind in ("lf", "crlf") and rng.random() < 0.3:
            matches = self.index.get(checks.sha256(line), [])
            min_conf = rng.randint(1, height - matches[0][0] + 1)
        argv = ["verify", "--chain", self.path, "--log", self.log_path]
        if min_conf != 1:
            argv += ["--min-confirmations", str(min_conf)]
        expected = checks.expected_verdict(self.index, height, log, min_conf)
        custody = None
        if kind == "proof":
            argv += ["--proof-out", self.proof_path]
        if kind == "custody":
            custody, reasons = self._attestations(rng, log)
            argv += ["--custody", self.custody_path]
            expected = checks.expected_custody(expected, reasons)
        return log, custody, argv, expected, min_conf

    def _attestations(self, rng, log: bytes) -> tuple[bytes, list[str | None]]:
        """Custody hops signed with ``cryptography`` directly; one chain in
        two has a bad hop."""
        digest = checks.sha256(checks.canonical_log(log))
        flaw = rng.choice([None, None, "hash-mismatch", "timestamp-regression"])
        lines, reasons, ts = [], [], inputs.GENESIS_TS + 100_000
        for i, holder in enumerate(self.holders):
            hop_digest, hop_ts, reason = digest, ts + 60 * i, None
            if i == 1 and flaw == "hash-mismatch":
                hop_digest, reason = checks.sha256(log + b"x"), flaw
            if i == 2 and flaw == "timestamp-regression":
                hop_ts, reason = ts - 1, flaw
            pub = holder.public_key().public_bytes_raw()
            message = hop_digest + pub + hop_ts.to_bytes(8, "big")
            lines.append(json.dumps({
                "log_hash": hop_digest.hex(), "holder_pubkey": pub.hex(),
                "received_timestamp": hop_ts, "signature": holder.sign(message).hex(),
            }))
            reasons.append(reason)
        return ("\n".join(lines) + "\n").encode(), reasons

    def round(self, k: int) -> list[Op]:
        log, custody, argv, expected, min_conf = self.case(k)
        write_bytes(self.log_path, log)
        if custody is not None:
            write_bytes(self.custody_path, custody)
        if os.path.exists(self.proof_path):
            os.remove(self.proof_path)

        start = time.perf_counter()
        code, out, _ = cli(self.tracer, argv)
        seconds = time.perf_counter() - start

        want_proof = "--proof-out" in argv
        proof_text = read_text(self.proof_path) if want_proof and os.path.exists(self.proof_path) else None
        printed = checks.last_json_line(out)
        problems = checks.verify_call_problems(expected, code, printed, self.blocks, proof_text, want_proof)
        court = court_recheck(log, self.chain, min_confirmations=min_conf).to_dict()
        if not isinstance(printed, dict) or court != printed.get("verdict", printed):
            problems.append("court_recheck disagrees with the printed verdict")
        return [Op(seconds, 1, len(self.blocks), problems)]


def _block_on(parent: Block, txs, timestamp: int) -> Block:
    """A difficulty-0 block (nonce 0 always meets it) over ``txs``."""
    header = BlockHeader(
        prev_hash=block_hash(parent.header),
        merkle_root=merkle_root(list(txs)),
        timestamp=timestamp,
        difficulty=0,
        nonce=0,
    )
    return Block(header=header, transactions=tuple(txs))


# ---------------------------------------------------------------------------
# simnet: seeded scenarios run to convergence by run_scenario
# ---------------------------------------------------------------------------

LINE = ["d1", "m1", "d2", "d3", "m2", "d4", "d5", "m3", "d6", "d7", "s1"]
LEFT, RIGHT, CUT_OFF = LINE[:4], LINE[4:10], LINE[10:]
SIM_RECORDS = 18
SIM_DIFFICULTY = 4


def _role(node_id: str) -> str:
    return {"m": "csp-miner", "d": "device", "s": "stakeholder"}[node_id[0]]


def scenario(seed: int, k: int) -> tuple[dict, list[bytes]]:
    """An 11-node line: registration, a three-way partition with mining on
    both sides while ``s1`` is cut off, a heal, then one sweep mine per
    miner, spaced so that each sweep block reaches every node first."""
    rng = inputs.op_rng("simnet", seed, k)
    actions = [
        {"tick": 0, "type": "register", "node": "m1", "target": n, "role": _role(n)}
        for n in LINE if n != "m1" and _role(n) != "csp-miner"
    ]
    actions.append({"tick": 1, "type": "mine", "node": "m1"})
    partition_at = 12 + rng.randint(0, 2)
    actions.append({"tick": partition_at, "type": "partition", "groups": [LEFT, RIGHT, CUT_OFF]})
    submit_ticks = [partition_at + 1 + 2 * i for i in range(SIM_RECORDS)]
    heal_at = submit_ticks[-1] + 2
    logs = []
    for i, tick in enumerate(submit_ticks):
        line = inputs.syslog_line(rng, f"{seed}-{k}-{i}")
        logs.append(line)
        device = rng.choice([n for n in LINE if n.startswith("d")])
        actions.append({"tick": tick, "type": "submit", "node": device, "log_hex": line.hex()})
    left_every, right_every = rng.choice([(5, 6), (6, 5), (6, 6), (5, 7), (7, 5)])
    for tick in range(partition_at + 3, heal_at, left_every):
        actions.append({"tick": tick, "type": "mine", "node": "m1"})
    for i, tick in enumerate(range(partition_at + 4, heal_at, right_every)):
        actions.append({"tick": tick, "type": "mine", "node": ("m2", "m3")[i % 2]})
    actions.append({"tick": heal_at, "type": "heal"})
    for i, miner in enumerate(("m1", "m2", "m3")):
        actions.append({"tick": heal_at + 16 * (i + 1), "type": "mine", "node": miner})
    sc = {
        "seed": rng.randrange(2 ** 32),
        "difficulty": SIM_DIFFICULTY,
        "genesis_timestamp": inputs.GENESIS_TS,
        "max_ticks": heal_at + 200,
        "nodes": [{"id": n, "role": _role(n)} for n in LINE],
        "edges": [{"a": a, "b": b, "latency": 1} for a, b in zip(LINE, LINE[1:])],
        "actions": sorted(actions, key=lambda a: a["tick"]),
    }
    return sc, logs


class SimnetWorkload:
    """One op is one scenario. The network ``run_scenario`` builds is kept
    through ``build_sim`` so that each node's final chain and every
    message payload can be read after the op."""

    name = "simnet"
    setup_reps = 15

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.tracer = None
        self.bytes_sent = 0
        self._nets = []
        original = simnet_mod.build_sim

        def keep(*args, **kwargs):
            net = original(*args, **kwargs)
            self._nets.append(net)
            return net

        simnet_mod.build_sim = keep

    def setup(self, rep: int) -> float:
        """Keys, genesis and registration: the scenario up to the first block."""
        sc, _ = scenario(self.seed, -1 - rep)
        sc["actions"] = [a for a in sc["actions"] if a["tick"] <= 1]
        start = time.perf_counter()
        result = run_scenario(sc)
        seconds = time.perf_counter() - start
        self._nets.clear()
        if not result.report["converged"]:
            raise RuntimeError("set-up scenario did not converge")
        return seconds

    def bytes_per_record(self, records: int) -> float:
        """Message payload bytes, summed over every edge, per record."""
        return self.bytes_sent / records

    def round(self, k: int) -> list[Op]:
        sc, logs = scenario(self.seed, k)
        start = time.perf_counter()
        if self.tracer is None:
            result = run_scenario(sc)
        else:
            result = self.tracer.span("simnet.run_scenario", run_scenario, sc)
        seconds = time.perf_counter() - start

        (net,) = self._nets
        self._nets.clear()
        self.bytes_sent += sum(len(p) for p in net.captured_payloads)
        if self.tracer is not None:
            self.tracer.counters["simnet.messages.enqueued"] += result.report["enqueued"]
            self.tracer.counters["simnet.messages.delivered"] += result.report["delivered"]
        problems = []
        node_digests = {}
        for node_id, node in net.nodes.items():
            text = "".join(block_to_json_line(b) + "\n" for b in node.logic.chain.blocks)
            blocks = checks.parse_chain_text(text)
            problems.extend(f"{node_id}: {p}" for p in checks.chain_problems(blocks))
            node_digests[node_id] = checks.anchored_digests(blocks)
        expected = [checks.sha256(line) for line in logs]
        problems.extend(checks.simnet_problems(result.report, node_digests, expected))
        height = net.nodes["s1"].logic.chain.height
        return [Op(seconds, len(logs), height, problems)]


WORKLOADS = {w.name: w for w in (AnchorWorkload, VerifyWorkload, SimnetWorkload)}
