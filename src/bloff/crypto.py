"""Hashing, key generation and signatures for node identity and transactions.

All values use fixed-width canonical encodings: 32-byte SHA-256 digests,
32-byte Ed25519 keys, 64-byte signatures. Hex renderings are lowercase
everywhere. Every function here is a pure function of its inputs and is
safe for unrestricted concurrent use.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from functools import cached_property

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

DIGEST_LEN = 32
KEY_LEN = 32
SIGNATURE_LEN = 64


Digest = bytes  # a 32-byte SHA-256 value; each input checks its length where it is parsed
ZERO_DIGEST = bytes(DIGEST_LEN)


def hex_to_bytes(text: str, expected_len: int | None = None) -> bytes:
    """Decode strict lowercase hex. Uppercase or stray characters are rejected
    so that serialized artifacts have exactly one accepted byte rendering:
    ``bytes.fromhex`` also takes uppercase and whitespace, so its result is
    kept only when it renders back to ``text``."""
    try:
        raw = bytes.fromhex(text)
    except (TypeError, ValueError):
        raw = None
    if raw is None or raw.hex() != text:
        raise ValueError(f"not lowercase hex: {text!r}")
    if expected_len is not None and len(raw) != expected_len:
        raise ValueError(f"expected {expected_len} bytes of hex, got {len(raw)}")
    return raw


def sha256_digest(data: bytes) -> Digest:
    """SHA-256 of ``data``. Empty input is permitted at this layer."""
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class KeyPair:
    """An Ed25519 keypair, made from its secret alone; the public key doubles
    as the node identity."""

    secret_key: bytes

    def __post_init__(self) -> None:
        if len(self.secret_key) != KEY_LEN:
            raise ValueError(f"secret key must be {KEY_LEN} bytes, got {len(self.secret_key)}")

    @cached_property
    def private_key(self) -> Ed25519PrivateKey:
        """The signing key object, built once per keypair."""
        return Ed25519PrivateKey.from_private_bytes(self.secret_key)

    @cached_property
    def public_key(self) -> bytes:
        """The key ``secret_key`` derives, derived once per keypair: the
        derivation costs more than a signature."""
        return self.private_key.public_key().public_bytes_raw()


def generate_keypair(seed: bytes) -> KeyPair:
    """Derive a keypair deterministically from a 32-byte seed."""
    return KeyPair(seed)


def sign(keypair: KeyPair, message: bytes) -> bytes:
    """Deterministic 64-byte Ed25519 signature over ``message`` by ``keypair``."""
    return keypair.private_key.sign(message)


def verify_signature(public_key: bytes, message: bytes, sig: bytes) -> bool:
    """True iff ``sig`` is a valid signature of ``message`` under ``public_key``.

    Total: malformed keys or signatures return False rather than raising, so
    ledger validation never aborts mid-chain.
    """
    if len(public_key) != KEY_LEN or len(sig) != SIGNATURE_LEN:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(bytes(sig), message)
        return True
    except (InvalidSignature, ValueError):
        return False


def node_id(public_key: bytes) -> str:
    """Short display identity: first 8 bytes of sha256(public_key), hex."""
    return sha256_digest(public_key).hex()[:16]


def save_keypair(path: str, keypair: KeyPair) -> None:
    """Write the two-line key file: ``secret: <hex>`` then ``public: <hex>``.

    The file is owner-only (0600) whatever the umask, also when it existed.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    os.fchmod(fd, 0o600)
    with os.fdopen(fd, "w", encoding="ascii") as fh:
        fh.write(f"secret: {keypair.secret_key.hex()}\n")
        fh.write(f"public: {keypair.public_key.hex()}\n")


def load_keypair(path: str) -> KeyPair:
    """Read an owner-only key file, re-deriving and cross-checking the public key."""
    if os.stat(path).st_mode & 0o077:
        raise ValueError(f"key file is open to group or others: {path}")
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if len(lines) != 2 or not lines[0].startswith("secret: ") or not lines[1].startswith("public: "):
        raise ValueError(f"malformed key file: {path}")
    secret = hex_to_bytes(lines[0][len("secret: "):], KEY_LEN)
    public = hex_to_bytes(lines[1][len("public: "):], KEY_LEN)
    keypair = generate_keypair(secret)
    if keypair.public_key != public:
        raise ValueError(f"key file public key does not match secret key: {path}")
    return keypair
