"""Acceptance suite: the system-level exit criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE n <name>: PASS`` line when it holds
(run with ``pytest tests/test_acceptance.py -v -s`` to see them). Tolerances
are pinned here and nowhere else: tamper detection and mutation fuzzes admit
zero false accepts, the PoW mean lies in the stated band, and the criterion-1
suite must finish inside its 60 second budget.
"""

import os
import random
import subprocess
import sys
import time

from bloff.consensus import Mempool, mine_block
from bloff.cli import handle_command
from bloff.crypto import Digest, generate_keypair, save_keypair, sha256_digest, sign, verify_signature
from bloff.ingest import LogRecord, build_anchor_for_record
from bloff.ledger import (
    ChainFileError,
    ChainValidationError,
    NodeRole,
    block_hash,
    build_registration_tx,
    encode_block,
    decode_block,
    leading_zero_bits,
    validate_chain,
)
from bloff.simnet import run_scenario
from bloff.store import Checkpoint, StoreError, load_chain, write_chain
from bloff.verify import (
    InclusionProof,
    court_recheck,
    make_inclusion_proof,
    verify_inclusion_proof,
    verify_log,
)
from conftest import GENESIS_TS, build_chain, child_env, partition_scenario
from oracles import oracle_anchor_scan, oracle_validate_chain
from test_crypto import SHA256_VECTORS


def report(number: int, name: str) -> None:
    print(f"\nACCEPTANCE {number} {name}: PASS")


def test_criterion_1_tamper_detection_suite(miner, device):
    started = time.perf_counter()
    rng = random.Random(101)
    lines = [
        f"iot log {i:04d} {rng.getrandbits(64):016x}".encode() for i in range(1000)
    ]
    chain, _ = build_chain(miner, device, lines, difficulty=12)
    anchor_blocks = [
        b for b in chain.blocks if any(getattr(tx, "kind", 0) == 1 for tx in b.transactions)
    ]
    assert len(anchor_blocks) >= 10
    assert all(b.header.difficulty == 12 for b in chain.blocks[1:])

    accepted = sum(verify_log(line, chain).accepted for line in lines)
    assert accepted == 1000

    anchored = set(lines)
    falsely_accepted = 0
    mutations_checked = 0
    while mutations_checked < 1000:
        line = bytearray(rng.choice(lines))
        position = rng.randrange(len(line))
        replacement = rng.randrange(256)
        if replacement == line[position]:
            continue
        line[position] = replacement
        mutated = bytes(line)
        if mutated in anchored:
            continue  # a mutation landing on another anchored line is not a tamper case
        mutations_checked += 1
        verdict = verify_log(mutated, chain)
        falsely_accepted += verdict.accepted
    assert falsely_accepted == 0

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    report(1, f"tamper-detection ({elapsed:.1f}s)")


def test_criterion_2_chain_immutability_exhaustive(tmp_path, miner, device):
    chain, _ = build_chain(miner, device, [b"aa", b"bb", b"cc"], txs_per_block=1)
    assert chain.height == 5
    path = tmp_path / "chain.jsonl"
    write_chain(str(path), chain.blocks)
    original = path.read_bytes()

    silent = []
    for position in range(len(original)):
        byte = original[position]
        replacements = {(byte + 1) % 256, byte ^ 0x01, byte ^ 0x20} - {byte}
        for replacement in replacements:
            mutated = original[:position] + bytes([replacement]) + original[position + 1:]
            path.write_bytes(mutated)
            try:
                load_chain(str(path))
            except (ChainFileError, ChainValidationError, StoreError):
                continue
            silent.append((position, replacement))
    assert silent == [], f"silent acceptances at {silent[:5]}"

    path.write_bytes(original)
    load_chain(str(path))  # the untouched file still loads
    report(2, f"chain-immutability ({len(original)} byte positions)")


def test_criterion_3_consensus_convergence():
    scenario = partition_scenario(seed=7, difficulty=2)
    first = run_scenario(scenario)
    second = run_scenario(scenario)

    assert first.report["converged"] is True
    assert first.report["ticks"] <= 100
    tips = {info["tip"] for info in first.report["nodes"].values()}
    digests = {info["index_digest"] for info in first.report["nodes"].values()}
    assert len(tips) == 1 and len(digests) == 1
    assert first.report == second.report
    assert first.events == second.events
    report(3, f"consensus-convergence ({first.report['ticks']} ticks)")


def test_criterion_4_pow_statistics(miner, device):
    chain, _ = build_chain(miner, device, [])
    attempts = []
    for i in range(50):
        pool = Mempool()
        record = LogRecord(
            raw=f"pow sample {i}".encode(), source_id="dev", capture_timestamp=GENESIS_TS + 10 + i
        )
        pool.add(build_anchor_for_record(record, device), chain)
        block = mine_block(
            pool, chain.tip.header, 8, miner, GENESIS_TS + 10 + i, chain.registered_nodes
        )
        assert leading_zero_bits(block_hash(block.header)) >= 8
        attempts.append(block.header.nonce + 1)
    mean = sum(attempts) / len(attempts)
    assert 85 <= mean <= 768, f"mean attempts {mean}"
    report(4, f"pow-statistics (mean {mean:.0f})")


def test_criterion_5_privacy_sentinel_never_serialized(tmp_path, miner, device):
    from bloff.simnet import build_sim

    rng = random.Random(55)
    sentinel = bytes(rng.getrandbits(8) for _ in range(32)).hex().encode()  # 64 bytes
    assert len(sentinel) == 64
    line = b"confidential patient record " + sentinel

    # Drive a 3-node fabric by hand so every gossip payload stays inspectable.
    net = build_sim(
        seed=5,
        node_specs=[
            ("m1", NodeRole.CSP_MINER),
            ("d1", NodeRole.DEVICE),
            ("s1", NodeRole.STAKEHOLDER),
        ],
        edges=[("m1", "d1", 1), ("m1", "s1", 1)],
        difficulty=0,
        genesis_timestamp=GENESIS_TS,
    )
    reg = build_registration_tx(
        net.nodes["d1"].keypair.public_key, NodeRole.DEVICE, net.nodes["m1"].keypair
    )
    net.submit("m1", reg)
    net.step()
    block = net.nodes["m1"].logic.maybe_mine(GENESIS_TS + 1)
    net.send_from("m1", net.nodes["m1"].logic.block_messages(block))
    net.step()
    record = LogRecord(raw=line, source_id="d1", capture_timestamp=GENESIS_TS + 2)
    tx = build_anchor_for_record(record, net.nodes["d1"].keypair)
    net.submit("d1", tx)
    net.step()
    block = net.nodes["m1"].logic.maybe_mine(GENESIS_TS + 3)
    net.send_from("m1", net.nodes["m1"].logic.block_messages(block))
    net.run_to_quiescence(20)

    assert net.captured_payloads, "expected gossip traffic to inspect"
    for payload in net.captured_payloads:
        assert sentinel not in payload
    for node_id in ("m1", "d1", "s1"):
        assert verify_log(line, net.nodes[node_id].logic.chain).accepted

    # File artifacts: every file a file-target submit, then mine, of the
    # same line leaves in the chain's directory.
    key, log, directory = tmp_path / "miner.key", tmp_path / "records.log", tmp_path / "chain"
    save_keypair(str(key), miner)
    log.write_bytes(line + b"\n")
    directory.mkdir()
    chain_path = str(directory / "chain.jsonl")
    commands = [
        ["genesis", "--authority", str(key), "--out", chain_path, "--timestamp", str(GENESIS_TS)],
        ["submit", "--key", str(key), "--chain", chain_path, "--log", str(log), "--source-id", "d1"],
        ["mine", "--key", str(key), "--chain", chain_path],
    ]
    for command in commands:
        assert handle_command(command) == 0
        for name in os.listdir(directory):
            assert sentinel not in (directory / name).read_bytes(), (command[0], name)
    checkpoint = os.path.basename(Checkpoint(chain_path, miner).path)
    assert sorted(os.listdir(directory)) == sorted(
        ["chain.jsonl", "chain.jsonl.lock", checkpoint, "mempool.jsonl"]
    )
    assert verify_log(line, load_chain(chain_path)).accepted
    report(5, "privacy-sentinel")


def test_criterion_6_oracle_equivalences(miner, device):
    rng = random.Random(66)
    lines = [f"bulk record {i:05d}".encode() for i in range(10_000)]
    chain, _ = build_chain(miner, device, lines, difficulty=0)
    total_anchors = sum(len(v) for v in chain.anchor_index.values())
    assert total_anchors == 10_000

    scanned = oracle_anchor_scan(chain.blocks)
    assert {bytes(k): v for k, v in chain.anchor_index.items()} == scanned
    for line in rng.sample(lines, 500):
        digest = sha256_digest(line)
        assert chain.anchor_locations(digest) == scanned[bytes(digest)]
    absent_misses = 0
    for _ in range(1000):
        digest = Digest(rng.randbytes(32))
        absent_misses += bool(chain.anchor_locations(digest)) or bytes(digest) in scanned
    assert absent_misses == 0

    # validate_chain vs. the brute-force re-checker over small chains,
    # valid and mutated alike.
    small_chain, _ = build_chain(miner, device, [b"a", b"b", b"c", b"d"], txs_per_block=1)
    assert small_chain.height <= 10
    candidates = [small_chain.blocks, small_chain.blocks[:3], small_chain.blocks[:1]]
    for _ in range(150):
        blocks = list(small_chain.blocks)
        index = rng.randrange(len(blocks))
        raw = bytearray(encode_block(blocks[index]))
        raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
        try:
            blocks[index] = decode_block(bytes(raw))
        except ValueError:
            continue
        candidates.append(blocks)
    compared = 0
    for blocks in candidates:
        ok_oracle, height_oracle, _ = oracle_validate_chain(blocks)
        try:
            validate_chain(blocks)
            ok_impl, height_impl = True, 0
        except ChainValidationError as err:
            ok_impl, height_impl = False, err.height
        assert ok_impl == ok_oracle
        if not ok_impl:
            assert height_impl == height_oracle
        compared += 1
    report(6, f"oracle-equivalence (10000 txs, {compared} chains)")


def test_criterion_7_inclusion_proofs(miner, device):
    rng = random.Random(77)
    lines = [f"proof target {i}".encode() for i in range(30)]
    chain, _ = build_chain(miner, device, lines, txs_per_block=7)

    proofs = []
    for height, block in enumerate(chain.blocks, start=1):
        for tx in block.transactions:
            proof = make_inclusion_proof(chain, height, tx.id)
            assert verify_inclusion_proof(proof, block.header)
            proofs.append((proof, block.header))

    accepted = 0
    for _ in range(1000):
        proof, header = proofs[rng.randrange(len(proofs))]
        choice = rng.randrange(3) if proof.path else rng.randrange(2)
        if choice == 0:
            raw = bytearray(proof.tx_id)
            raw[rng.randrange(32)] ^= 1 << rng.randrange(8)
            mutated = InclusionProof(Digest(bytes(raw)), proof.block_height, proof.merkle_root, proof.path)
        elif choice == 1:
            raw = bytearray(proof.merkle_root)
            raw[rng.randrange(32)] ^= 1 << rng.randrange(8)
            mutated = InclusionProof(proof.tx_id, proof.block_height, Digest(bytes(raw)), proof.path)
        else:
            position = rng.randrange(len(proof.path))
            side, digest = proof.path[position]
            raw = bytearray(digest)
            raw[rng.randrange(32)] ^= 1 << rng.randrange(8)
            path = list(proof.path)
            path[position] = (side, Digest(bytes(raw)))
            mutated = InclusionProof(proof.tx_id, proof.block_height, proof.merkle_root, tuple(path))
        accepted += verify_inclusion_proof(mutated, header)
    assert accepted == 0
    report(7, f"inclusion-proofs ({len(proofs)} proofs, 1000 mutations)")


def test_criterion_8_crypto_conformance():
    for message, expected in SHA256_VECTORS:
        assert sha256_digest(message).hex() == expected

    rng = random.Random(88)
    for _ in range(1000):
        pair = generate_keypair(rng.randbytes(32))
        message = rng.randbytes(rng.randrange(0, 96))
        assert verify_signature(pair.public_key, message, sign(pair, message))

    accepted = 0
    for _ in range(1000):
        pair = generate_keypair(rng.randbytes(32))
        message = rng.randbytes(rng.randrange(1, 64))
        signature = sign(pair, message)
        which = rng.randrange(3)
        blob = bytearray((message, signature, pair.public_key)[which])
        bit = rng.randrange(len(blob) * 8)
        blob[bit // 8] ^= 1 << (bit % 8)
        if which == 0:
            ok = verify_signature(pair.public_key, bytes(blob), signature)
        elif which == 1:
            ok = verify_signature(pair.public_key, message, bytes(blob))
        else:
            ok = verify_signature(bytes(blob), message, signature)
        accepted += ok
    assert accepted == 0
    report(8, "crypto-conformance")


def run_cli(*args, stdin_bytes=None, timeout=60):
    return subprocess.run(
        [sys.executable, "-m", "bloff", *args],
        input=stdin_bytes,
        capture_output=True,
        timeout=timeout,
        env=child_env(),
    )


def test_criterion_9_investigator_and_court_scenario(tmp_path):
    """A CSP anchors its logs; the investigator's verification accepts them;
    a forged substitute is rejected by the court's independent re-check.
    CLI exit codes: 0 for the genuine log, 1 for the forgery."""
    csp_key = tmp_path / "csp.key"
    chain_path = tmp_path / "chain.jsonl"

    assert run_cli("keygen", "--out", str(csp_key)).returncode == 0
    assert (
        run_cli(
            "genesis", "--authority", str(csp_key), "--out", str(chain_path),
            "--timestamp", str(GENESIS_TS),
        ).returncode
        == 0
    )

    logs = tmp_path / "cloud.log"
    genuine_line = b"2026-03-01T10:22:07Z tenant=elvan action=disable-firewall"
    logs.write_bytes(
        b"2026-03-01T10:21:55Z tenant=elvan action=login src=203.0.113.9\n"
        + genuine_line + b"\n"
        + b"2026-03-01T10:23:40Z tenant=elvan action=exfil bytes=8123994\n"
    )
    result = run_cli(
        "submit", "--key", str(csp_key), "--chain", str(chain_path),
        "--log", str(logs), "--source-id", "cloud-audit",
    )
    assert result.returncode == 0, result.stderr
    assert run_cli(
        "mine", "--key", str(csp_key), "--chain", str(chain_path), "--difficulty", "8"
    ).returncode == 0

    # The investigator receives the log from the CSP and verifies it.
    evidence = tmp_path / "evidence.log"
    evidence.write_bytes(genuine_line + b"\n")
    investigator = run_cli("verify", "--chain", str(chain_path), "--log", str(evidence))
    assert investigator.returncode == 0, investigator.stdout + investigator.stderr
    assert b'"outcome":"Accepted"' in investigator.stdout

    # The investigator substitutes a doctored log before court.
    forged_line = genuine_line.replace(b"disable-firewall", b"disable-firewalls")
    forged = tmp_path / "forged.log"
    forged.write_bytes(forged_line + b"\n")

    chain = load_chain(str(chain_path))
    court_verdict = court_recheck(forged_line, chain)
    assert not court_verdict.accepted
    assert court_verdict.reason == "not-found"
    assert court_recheck(genuine_line, chain).accepted

    court_cli = run_cli("verify", "--chain", str(chain_path), "--log", str(forged))
    assert court_cli.returncode == 1
    assert b'"outcome":"Rejected"' in court_cli.stdout
    report(9, "investigator-court-scenario (exit codes 0 and 1)")
