"""Seeded input generation for the three workloads.

Everything here is the benchmark's own work: it never calls into bloff, and
the same (workload, seed, round) always gives the same bytes.
"""

from __future__ import annotations

import hashlib
import random

GENESIS_TS = 1_700_000_000

_MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]
_HOSTS = ["edge-gw", "core-sw1", "vm-0417", "ids-probe", "db-primary", "lb-east", "cam-12"]
_APPS = ["sshd", "kernel", "CRON", "systemd", "nginx", "postfix/smtpd", "dhclient", "sudo", "auditd"]
_WORDS = (
    "accepted publickey for root from port session opened closed by user uid "
    "connection reset timeout link up down carrier lost renewed lease request "
    "GET POST /api/v1/login 200 401 503 bytes in out denied allowed policy rule "
    "segfault at ip sp error oom-killer invoked restarting unit failed started"
).split()
# Byte strings that are not valid UTF-8: an invalid byte, a bad two-byte
# sequence, an encoded surrogate and two stray continuation bytes.
_BAD_UTF8 = [b"\xff", b"\xc3\x28", b"\xed\xa0\x80", b"\x80\x80"]


def op_rng(workload: str, seed: int, index: int) -> random.Random:
    """The generator for round ``index`` of a run with ``seed``.

    Random seeds a string with SHA-512, so this is stable across Python
    versions and independent of every other op's draws.
    """
    return random.Random(f"perfbench:{workload}:{seed}:{index}")


def key_seed(seed: int, label: str) -> bytes:
    """32 bytes for an Ed25519 secret key, derived from the run seed."""
    return hashlib.sha256(f"perfbench-key:{seed}:{label}".encode()).digest()


def syslog_line(rng: random.Random, tag: str) -> bytes:
    """One syslog-like record, 50 to 300 bytes, without a terminator.

    ``tag`` is placed near the front so that lines stay unique even when the
    filler words repeat. About one line in twelve carries invalid UTF-8.
    """
    target = rng.randint(50, 300)
    head = "%s %2d %02d:%02d:%02d %s %s[%d]: [%s] " % (
        rng.choice(_MONTHS),
        rng.randint(1, 28),
        rng.randint(0, 23),
        rng.randint(0, 59),
        rng.randint(0, 59),
        rng.choice(_HOSTS),
        rng.choice(_APPS),
        rng.randint(100, 65000),
        tag,
    )
    line = head.encode("ascii")
    if rng.random() < 1 / 12:
        line += rng.choice(_BAD_UTF8) + b" "
    target = max(target, len(line) + 4)  # never cut into the tag
    while len(line) < target:
        line += rng.choice(_WORDS).encode("ascii") + b" "
    line = line[:target]
    return line[:-1] + b"." if line.endswith(b" ") else line


def log_file(rng: random.Random, lines: list[bytes]) -> bytes:
    """Join records into a log file: LF or CRLF terminators, blank lines
    interspersed, and sometimes no terminator on the last line."""
    parts = []
    for line in lines:
        if rng.random() < 0.05:
            parts.append(rng.choice([b"\n", b"\r\n"]))
        parts.append(line + (b"\r\n" if rng.random() < 0.3 else b"\n"))
    if parts and rng.random() < 0.3:
        last = parts[-1]
        parts[-1] = last[:-2] if last.endswith(b"\r\n") else last[:-1]
    return b"".join(parts)
