"""Hashing and signature layer: reference vectors, roundtrips, mutation fuzz."""

import os
import stat

import pytest

from bloff.crypto import (
    SIGNATURE_LEN,
    Digest,
    generate_keypair,
    hex_to_bytes,
    load_keypair,
    node_id,
    save_keypair,
    sha256_digest,
    sign,
    verify_signature,
)

# FIPS 180-4 short-message vectors.
SHA256_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    ),
    (
        b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
    ),
    (b"a" * 1_000_000, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
]


class TestSha256:
    def test_reference_vectors(self):
        for message, expected in SHA256_VECTORS:
            assert sha256_digest(message).hex() == expected

    def test_determinism(self, rng):
        for _ in range(50):
            data = rng.randbytes(rng.randrange(0, 300))
            assert sha256_digest(data) == sha256_digest(data)

    def test_hex_rendering_is_lowercase_64_chars(self):
        rendered = sha256_digest(b"x").hex()
        assert len(rendered) == 64
        assert rendered == rendered.lower()


class TestDigestValues:
    def test_value_semantics(self):
        a = Digest(bytes(32))
        b = Digest(bytes(32))
        assert a == b
        assert hash(a) == hash(b)
        assert a != Digest(b"\x01" + bytes(31))

    def test_length_enforced(self):
        with pytest.raises(ValueError):
            Digest(bytes(31))
        with pytest.raises(ValueError):
            hex_to_bytes(bytes(63).hex(), SIGNATURE_LEN)

    def test_from_hex_rejects_uppercase(self):
        good = sha256_digest(b"x").hex()
        assert Digest.from_hex(good) == sha256_digest(b"x")
        with pytest.raises(ValueError):
            Digest.from_hex(good.upper())

    def test_hex_to_bytes_strictness(self):
        with pytest.raises(ValueError):
            hex_to_bytes("0g")
        with pytest.raises(ValueError):
            hex_to_bytes("abc")  # odd length
        with pytest.raises(ValueError):
            hex_to_bytes("00ff", expected_len=3)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("", b""),
            ("00ff", b"\x00\xff"),
            ("0123456789abcdef", bytes.fromhex("0123456789abcdef")),
            ("00FF", None),
            ("Ab", None),
            ("00 ff", None),
            (" 00", None),
            ("00\n", None),
            ("\t", None),
            ("abc", None),
            ("0", None),
            ("0g", None),
            ("\u0660\u0660", None),
            (b"00", None),
            (bytearray(b"00"), None),
            (0, None),
            (None, None),
        ],
    )
    def test_hex_to_bytes_accepts_only_lowercase_pairs(self, text, expected):
        if expected is None:
            with pytest.raises(ValueError, match="not lowercase hex"):
                hex_to_bytes(text)
        else:
            assert hex_to_bytes(text) == expected

    def test_hex_to_bytes_checks_length_after_decoding(self):
        assert hex_to_bytes("00ff", expected_len=2) == b"\x00\xff"
        with pytest.raises(ValueError, match="expected 3 bytes of hex, got 2"):
            hex_to_bytes("00ff", expected_len=3)
        with pytest.raises(ValueError, match="not lowercase hex"):
            hex_to_bytes("00FF", expected_len=2)


class TestKeypairs:
    def test_deterministic_from_seed(self):
        seed = bytes(range(32))
        assert generate_keypair(seed) == generate_keypair(seed)

    def test_distinct_seeds_distinct_pubkeys(self, rng):
        seen = set()
        for _ in range(100):
            pair = generate_keypair(rng.randbytes(32))
            seen.add(pair.public_key)
        assert len(seen) == 100

    def test_bad_seed_length(self):
        with pytest.raises(ValueError):
            generate_keypair(bytes(31))
        with pytest.raises(ValueError):
            generate_keypair(bytes(33))

    def test_node_id_is_short_hash_of_pubkey(self):
        pair = generate_keypair(bytes(32))
        assert node_id(pair.public_key) == sha256_digest(pair.public_key).hex()[:16]


class TestSignatures:
    def test_sign_verify_roundtrip(self):
        pair = generate_keypair(os.urandom(32))
        message = b"device log entry"
        sig = sign(pair, message)
        assert len(sig) == 64
        assert verify_signature(pair.public_key, message, sig)

    def test_signing_is_deterministic(self):
        pair = generate_keypair(bytes(32))
        assert sign(pair, b"m") == sign(pair, b"m")

    def test_fixed_seed_signature_bytes_pinned(self):
        """The signature of a fixed key and message, as recorded when a
        signature was made from the raw secret key on every call."""
        pair = generate_keypair(bytes(range(32)))
        assert pair.public_key.hex() == (
            "03a107bff3ce10be1d70dd18e74bc09967e4d6309ba50d5f1ddc8664125531b8"
        )
        assert sign(pair, b"bloff fixed-seed signature").hex() == (
            "27612856279f1e5a13b63e0932a4ac81afccb69ed330411f7764ea3552a310eb"
            "41a0ca0a03bca6ae8ac6a44dac2595d7d185f68256b10cebdd357c7489dc970b"
        )

    def test_rfc8032_test_1(self):
        """RFC 8032 section 7.1, TEST 1: the public key, and the signature of
        the empty message, the same on each signing. A chain load checks its
        own key's txs by signing again, which holds only while signing is
        this deterministic."""
        pair = generate_keypair(
            bytes.fromhex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
        )
        assert pair.public_key.hex() == (
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        )
        expected = (
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555"
            "fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
        )
        assert sign(pair, b"").hex() == expected
        assert sign(pair, b"").hex() == expected
        assert verify_signature(pair.public_key, b"", bytes.fromhex(expected))

    def test_wrong_message_rejected(self):
        pair = generate_keypair(bytes(32))
        sig = sign(pair, b"genuine")
        assert not verify_signature(pair.public_key, b"forged", sig)

    def test_cross_key_rejected(self):
        a = generate_keypair(bytes([1]) * 32)
        b = generate_keypair(bytes([2]) * 32)
        sig = sign(a, b"m")
        assert not verify_signature(b.public_key, b"m", sig)

    def test_malformed_inputs_return_false_not_raise(self):
        pair = generate_keypair(bytes(32))
        sig = sign(pair, b"m")
        assert not verify_signature(pair.public_key[:-1], b"m", sig)
        assert not verify_signature(pair.public_key, b"m", sig[:-1])
        assert not verify_signature(b"", b"m", b"")

    def test_roundtrip_property_1000_random(self, rng):
        for _ in range(1000):
            pair = generate_keypair(rng.randbytes(32))
            message = rng.randbytes(rng.randrange(0, 128))
            assert verify_signature(pair.public_key, message, sign(pair, message))

    def test_single_bit_mutations_all_rejected(self, rng):
        accepted = 0
        for _ in range(1000):
            pair = generate_keypair(rng.randbytes(32))
            message = rng.randbytes(rng.randrange(1, 64))
            sig = sign(pair, message)
            target = rng.randrange(3)
            if target == 0:
                mutated = bytearray(message)
            elif target == 1:
                mutated = bytearray(sig)
            else:
                mutated = bytearray(pair.public_key)
            bit = rng.randrange(len(mutated) * 8)
            mutated[bit // 8] ^= 1 << (bit % 8)
            if target == 0:
                ok = verify_signature(pair.public_key, bytes(mutated), sig)
            elif target == 1:
                ok = verify_signature(pair.public_key, message, bytes(mutated))
            else:
                ok = verify_signature(bytes(mutated), message, sig)
            accepted += ok
        assert accepted == 0


class TestKeyFiles:
    def test_roundtrip(self, tmp_path):
        pair = generate_keypair(os.urandom(32))
        path = tmp_path / "node.key"
        save_keypair(str(path), pair)
        assert load_keypair(str(path)) == pair

    def test_format_exactly_two_labeled_lines(self, tmp_path):
        pair = generate_keypair(bytes(32))
        path = tmp_path / "node.key"
        save_keypair(str(path), pair)
        text = path.read_text()
        assert text == (
            f"secret: {pair.secret_key.hex()}\npublic: {pair.public_key.hex()}\n"
        )

    def test_secret_file_is_owner_only(self, tmp_path):
        """0600 under a permissive umask, and also over an existing 0644 file."""
        pair = generate_keypair(bytes(32))
        fresh = tmp_path / "fresh.key"
        existing = tmp_path / "existing.key"
        existing.write_text("old\n")
        os.chmod(existing, 0o644)
        previous = os.umask(0o022)
        try:
            save_keypair(str(fresh), pair)
            save_keypair(str(existing), pair)
        finally:
            os.umask(previous)
        for path in (fresh, existing):
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
            assert load_keypair(str(path)) == pair

    def test_mismatched_public_rejected(self, tmp_path):
        a = generate_keypair(bytes([1]) * 32)
        b = generate_keypair(bytes([2]) * 32)
        path = tmp_path / "node.key"
        path.write_text(f"secret: {a.secret_key.hex()}\npublic: {b.public_key.hex()}\n")
        os.chmod(path, 0o600)
        with pytest.raises(ValueError, match="does not match"):
            load_keypair(str(path))

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "node.key"
        path.write_text("not a key file\n")
        os.chmod(path, 0o600)
        with pytest.raises(ValueError, match="malformed"):
            load_keypair(str(path))

    def test_group_or_world_accessible_file_refused(self, tmp_path):
        pair = generate_keypair(bytes(32))
        path = tmp_path / "node.key"
        save_keypair(str(path), pair)
        for mode in (0o644, 0o640, 0o604):
            os.chmod(path, mode)
            with pytest.raises(ValueError, match="group or others"):
                load_keypair(str(path))
        os.chmod(path, 0o600)
        assert load_keypair(str(path)) == pair
