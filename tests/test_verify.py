"""Verdicts, inclusion proofs and chain-of-custody checks."""

import json

import pytest

from bloff.crypto import Digest, sha256_digest
from bloff.ingest import RecordError
from bloff.verify import (
    InclusionProof,
    make_attestation,
    make_inclusion_proof,
    parse_attestation_line,
    court_recheck,
    verify_custody,
    verify_inclusion_proof,
    verify_log,
    ProofError,
)
from conftest import GENESIS_TS, build_chain, keypair_for


@pytest.fixture
def anchored(miner, device):
    lines = [f"event {i:03d} from sensor".encode() for i in range(12)]
    chain, records = build_chain(miner, device, lines, txs_per_block=4)
    return chain, lines


class TestVerifyLog:
    def test_anchored_log_accepted(self, anchored):
        chain, lines = anchored
        verdict = verify_log(lines[0], chain)
        assert verdict.accepted
        assert verdict.computed_hash == sha256_digest(lines[0])
        (match,) = verdict.matches
        assert match.confirmations == chain.height - match.height + 1
        assert match.confirmations >= 1

    def test_trailing_newline_does_not_reject(self, anchored):
        chain, lines = anchored
        assert verify_log(lines[0] + b"\n", chain).accepted
        assert verify_log(lines[0] + b"\r\n", chain).accepted

    def test_single_byte_flip_rejected(self, anchored, rng):
        chain, lines = anchored
        anchored_set = set(lines)
        rejected = 0
        for _ in range(300):
            line = bytearray(rng.choice(lines))
            line[rng.randrange(len(line))] ^= 1 << rng.randrange(8)
            mutated = bytes(line)
            if mutated in anchored_set:
                continue
            verdict = verify_log(mutated, chain)
            assert not verdict.accepted
            assert verdict.reason == "not-found"
            rejected += 1
        assert rejected > 250

    def test_tip_anchor_insufficient_confirmations(self, anchored):
        chain, lines = anchored
        tip_log = lines[-1]
        assert verify_log(tip_log, chain, min_confirmations=1).accepted
        verdict = verify_log(tip_log, chain, min_confirmations=chain.height + 1)
        assert not verdict.accepted
        assert verdict.reason == "insufficient-confirmations"

    def test_empty_log_is_error_not_rejected(self, anchored):
        chain, _ = anchored
        with pytest.raises(RecordError):
            verify_log(b"\n", chain)

    def test_expected_submitter_filter(self, anchored, miner, device):
        chain, lines = anchored
        assert verify_log(lines[0], chain, expected_submitter=device.public_key).accepted
        verdict = verify_log(lines[0], chain, expected_submitter=miner.public_key)
        assert not verdict.accepted
        assert verdict.reason == "not-found"

    def test_min_confirmations_must_be_positive(self, anchored):
        chain, lines = anchored
        with pytest.raises(ValueError):
            verify_log(lines[0], chain, min_confirmations=0)

    def test_verdict_json_single_line(self, anchored):
        chain, lines = anchored
        rendered = verify_log(lines[0], chain).to_json()
        assert "\n" not in rendered
        assert '"outcome":"Accepted"' in rendered


class TestCourtRecheck:
    def test_differential_with_verify_log(self, anchored, rng):
        chain, lines = anchored
        for _ in range(1000):
            if rng.random() < 0.5:
                log = rng.choice(lines)
            else:
                log = bytearray(rng.choice(lines))
                log[rng.randrange(len(log))] ^= 1 << rng.randrange(8)
                log = bytes(log)
            minimum = rng.choice([1, 2, chain.height, chain.height + 1])
            a = verify_log(log, chain, min_confirmations=minimum)
            b = court_recheck(log, chain, min_confirmations=minimum)
            assert a == b

    def test_genuine_log_both_accept(self, anchored):
        chain, lines = anchored
        assert verify_log(lines[3], chain).accepted
        assert court_recheck(lines[3], chain).accepted

    def test_forged_log_court_rejects(self, anchored):
        chain, lines = anchored
        forged = lines[3] + b" [edited to exonerate]"
        assert not court_recheck(forged, chain).accepted


class TestVerificationProperties:
    def test_binary_log_roundtrips_end_to_end(self, miner, device):
        """A line of invalid UTF-8 anchors and verifies byte-for-byte."""
        binary_line = b"\xff\xfe\x00\x80 raw frame \x9c\x01"
        chain, _ = build_chain(miner, device, [binary_line, b"plain text"])
        assert verify_log(binary_line, chain).accepted
        assert court_recheck(binary_line, chain).accepted
        assert not verify_log(binary_line[:-1], chain).accepted

    def test_outcome_independent_of_ingestion_order(self, miner, device):
        lines = [f"ordering probe {i}".encode() for i in range(8)]
        chain_forward, _ = build_chain(miner, device, lines, txs_per_block=3)
        chain_backward, _ = build_chain(miner, device, list(reversed(lines)), txs_per_block=3)
        probes = lines + [line + b"!" for line in lines]
        for probe in probes:
            assert (
                verify_log(probe, chain_forward).accepted
                == verify_log(probe, chain_backward).accepted
            )


class TestInclusionProofs:
    def test_single_tx_block_has_empty_path(self, miner, device):
        chain, _ = build_chain(miner, device, [b"only"], txs_per_block=100)
        height = chain.height
        block = chain.blocks[-1]
        assert len(block.transactions) == 1
        proof = make_inclusion_proof(chain, height, block.transactions[0].id)
        assert proof.path == ()
        assert verify_inclusion_proof(proof, block.header)

    def test_every_tx_in_4_tx_block_proves(self, anchored):
        chain, _ = anchored
        for height, block in enumerate(chain.blocks, start=1):
            for tx in block.transactions:
                proof = make_inclusion_proof(chain, height, tx.id)
                assert verify_inclusion_proof(proof, block.header)

    def test_absent_tx_is_error(self, anchored):
        chain, _ = anchored
        with pytest.raises(ProofError, match="not-in-block"):
            make_inclusion_proof(chain, 1, sha256_digest(b"never on chain"))
        with pytest.raises(ProofError, match="not-in-block"):
            make_inclusion_proof(chain, chain.height + 5, sha256_digest(b"x"))

    def test_mutated_proofs_never_verify(self, anchored, rng):
        chain, _ = anchored
        proofs = []
        for height, block in enumerate(chain.blocks, start=1):
            for tx in block.transactions:
                proofs.append((make_inclusion_proof(chain, height, tx.id), block.header))
        accepted = 0
        for _ in range(1000):
            proof, header = proofs[rng.randrange(len(proofs))]
            field = rng.choice(
                ["tx_id", "root"] + (["sibling"] if proof.path else [])
            )
            if field == "tx_id":
                raw = bytearray(proof.tx_id)
                raw[rng.randrange(32)] ^= 1 << rng.randrange(8)
                mutated = InclusionProof(
                    tx_id=Digest(bytes(raw)),
                    block_height=proof.block_height,
                    merkle_root=proof.merkle_root,
                    path=proof.path,
                )
            elif field == "root":
                raw = bytearray(proof.merkle_root)
                raw[rng.randrange(32)] ^= 1 << rng.randrange(8)
                mutated = InclusionProof(
                    tx_id=proof.tx_id,
                    block_height=proof.block_height,
                    merkle_root=Digest(bytes(raw)),
                    path=proof.path,
                )
            else:
                position = rng.randrange(len(proof.path))
                side, digest = proof.path[position]
                raw = bytearray(digest)
                raw[rng.randrange(32)] ^= 1 << rng.randrange(8)
                path = list(proof.path)
                path[position] = (side, Digest(bytes(raw)))
                mutated = InclusionProof(
                    tx_id=proof.tx_id,
                    block_height=proof.block_height,
                    merkle_root=proof.merkle_root,
                    path=tuple(path),
                )
            accepted += verify_inclusion_proof(mutated, header)
        assert accepted == 0

    def test_proof_json_roundtrip(self, anchored):
        chain, _ = anchored
        block = chain.blocks[-1]
        proof = make_inclusion_proof(chain, chain.height, block.transactions[0].id)
        import json

        assert InclusionProof.from_dict(json.loads(proof.to_json())) == proof


class TestCustody:
    def test_three_honest_hops_pass(self, anchored):
        chain, lines = anchored
        log = lines[0]
        digest = sha256_digest(log)
        holders = [keypair_for(f"investigator-{i}") for i in range(3)]
        attestations = [
            make_attestation(digest, holder, GENESIS_TS + 100 + i)
            for i, holder in enumerate(holders)
        ]
        report = verify_custody(log, attestations, chain)
        assert all(h.passed for h in report.hops)
        assert report.overall_pass

    def test_swapped_log_mid_custody_fails_that_hop(self, anchored):
        chain, lines = anchored
        log = lines[0]
        digest = sha256_digest(log)
        other_digest = sha256_digest(b"a different log entirely")
        holders = [keypair_for(f"investigator-{i}") for i in range(3)]
        attestations = [
            make_attestation(digest, holders[0], GENESIS_TS + 100),
            make_attestation(other_digest, holders[1], GENESIS_TS + 101),
            make_attestation(digest, holders[2], GENESIS_TS + 102),
        ]
        report = verify_custody(log, attestations, chain)
        assert [h.passed for h in report.hops] == [True, False, True]
        assert report.hops[1].reason == "hash-mismatch"
        assert not report.overall_pass

    def test_unanchored_log_hops_pass_overall_fails(self, anchored):
        chain, _ = anchored
        log = b"never anchored anywhere"
        digest = sha256_digest(log)
        attestations = [make_attestation(digest, keypair_for("inv"), GENESIS_TS + 100)]
        report = verify_custody(log, attestations, chain)
        assert all(h.passed for h in report.hops)
        assert not report.overall_pass
        assert report.verdict.reason == "not-found"

    def test_timestamp_regression_fails(self, anchored):
        chain, lines = anchored
        digest = sha256_digest(lines[0])
        a = make_attestation(digest, keypair_for("inv-a"), GENESIS_TS + 200)
        b = make_attestation(digest, keypair_for("inv-b"), GENESIS_TS + 150)
        report = verify_custody(lines[0], [a, b], chain)
        assert report.hops[1].reason == "timestamp-regression"
        assert not report.overall_pass

    def test_bad_signature_hop(self, anchored):
        chain, lines = anchored
        digest = sha256_digest(lines[0])
        good = make_attestation(digest, keypair_for("inv"), GENESIS_TS + 100)
        from bloff.verify import CustodyAttestation

        tampered = CustodyAttestation(
            log_hash=good.log_hash,
            holder_pubkey=good.holder_pubkey,
            received_timestamp=good.received_timestamp + 1,  # breaks the signature
            signature=good.signature,
        )
        report = verify_custody(lines[0], [tampered], chain)
        assert report.hops[0].reason == "bad-signature"

    def test_malformed_entry_fails_hop_later_hops_evaluated(self, anchored):
        chain, lines = anchored
        digest = sha256_digest(lines[0])
        good = make_attestation(digest, keypair_for("inv"), GENESIS_TS + 100)
        report = verify_custody(lines[0], [None, good], chain)
        assert report.hops[0].reason == "malformed"
        assert report.hops[1].passed

    def test_attestation_line_roundtrip(self, anchored):
        chain, lines = anchored
        att = make_attestation(sha256_digest(lines[0]), keypair_for("inv"), GENESIS_TS + 7)
        assert parse_attestation_line(att.to_json()) == att

    def test_attestation_line_with_a_short_signature_is_refused(self, anchored):
        _, lines = anchored
        obj = make_attestation(sha256_digest(lines[0]), keypair_for("inv"), GENESIS_TS + 7).to_dict()
        obj["signature"] = obj["signature"][:126]
        with pytest.raises(ValueError, match="expected 64 bytes of hex, got 63"):
            parse_attestation_line(json.dumps(obj))

    @pytest.mark.parametrize("timestamp", ['"12"', "true", "1.5", "-1", "1e30", "1e400", str(2**64), "null"])
    def test_attestation_timestamp_must_be_a_u64_json_integer(self, anchored, timestamp):
        _, lines = anchored
        line = make_attestation(sha256_digest(lines[0]), keypair_for("inv"), 7).to_json()
        bad = line.replace('"received_timestamp":7', f'"received_timestamp":{timestamp}')
        assert bad != line
        with pytest.raises(ValueError, match="received_timestamp"):
            parse_attestation_line(bad)

    @pytest.mark.parametrize("timestamp", [0, 2**64 - 1])
    def test_attestation_timestamp_bounds_are_accepted(self, anchored, timestamp):
        _, lines = anchored
        att = make_attestation(sha256_digest(lines[0]), keypair_for("inv"), timestamp)
        assert parse_attestation_line(att.to_json()) == att
