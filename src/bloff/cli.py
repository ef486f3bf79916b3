"""Command-line interface: keygen, genesis, node, submit, mine, verify,
inspect and simulate.

``--chain`` accepts either a chain file path or a running node's
``host:port`` address. File targets keep pending transactions in a
``mempool.jsonl`` sidecar next to the chain file so that submit and mine
compose without a long-running process. ``BLOFF_HOME`` sets the default
directory for chain files.

Exit codes: 0 success (verify: Accepted), 1 verify Rejected, 2 error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import logging
import os
import re
import sys
import time

from . import store as store_mod
from .consensus import Mempool, MiningError, mine_block
from .crypto import (
    Digest,
    generate_keypair,
    hex_to_bytes,
    load_keypair,
    node_id,
    save_keypair,
)
from .ingest import LogRecord, LogSource, RecordError, SourceError, build_anchor_for_record, ingest
from .ledger import (
    AnchorTransaction,
    Chain,
    ChainFileError,
    ChainValidationError,
    NodeRole,
    RegistrationTransaction,
    Transaction,
    TxDecodeError,
    block_to_json_line,
    build_registration_tx,
    decode_tx,
    make_genesis,
    tx_to_dict,
    validate_chain,
)
from .node import NodeConfig, default_home, fetch_chain, run_node, send_txs
from .simnet import load_scenario, run_scenario
from .store import BlockStore, StoreError
from .verify import (
    make_inclusion_proof,
    parse_attestation_line,
    verify_custody,
    verify_log,
)

_ADDRESS_RE = re.compile(r"^[A-Za-z0-9.\-]+:\d{1,5}$")


def is_address(target: str) -> bool:
    return bool(_ADDRESS_RE.match(target)) and not os.path.exists(target)


def default_chain_path() -> str:
    return os.path.join(default_home(), "chain.jsonl")


def mempool_path_for(chain_path: str, override: str | None) -> str:
    if override:
        return override
    return os.path.join(os.path.dirname(chain_path) or ".", "mempool.jsonl")


def reader_checkpoint(chain_path: str) -> store_mod.Checkpoint | None:
    """This OS user's checkpoint on ``chain_path``, kept with the reader key
    (made on first use) in the 0700 ``bloff`` directory of ``$XDG_CACHE_HOME``
    or ``~/.cache``; None when that is relative or the key is unusable."""
    home = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "bloff")
    if not os.path.isabs(home):  # the XDG spec ignores a relative path
        return None
    key_path = os.path.join(home, "reader.key")
    try:
        if not os.path.exists(key_path):
            os.makedirs(home, 0o700, exist_ok=True)
            temp = f"{key_path}.{os.getpid()}.tmp"
            save_keypair(temp, generate_keypair(os.urandom(32)))
            try:
                os.link(temp, key_path)  # racing first runs keep the first one's key
            finally:
                os.unlink(temp)
        keypair = load_keypair(key_path)
    except (OSError, ValueError):
        return None
    name = hashlib.sha256(os.path.realpath(chain_path).encode()).hexdigest()
    return store_mod.Checkpoint(chain_path, keypair, os.path.join(home, f"{name}.checked"))


def load_chain_target(target: str) -> Chain:
    """Load and validate a chain from a running node, or a file with the reader's checkpoint."""
    if is_address(target):
        return validate_chain(fetch_chain(target))
    return store_mod.load_chain(target, reader_checkpoint(target))


def load_pending(pool_path: str) -> list[Transaction | str]:
    """The txs of a mempool file, in order; a line that does not decode as a
    tx stands as its "invalid:<reason>" status instead, "invalid:bad-line"
    when it holds no tx bytes at all."""
    pending: list[Transaction | str] = []
    for raw in store_mod.load_mempool_file(pool_path):
        if raw is None:
            pending.append("invalid:bad-line")
            continue
        try:
            pending.append(decode_tx(raw))
        except TxDecodeError as exc:
            pending.append(f"invalid:{exc.reason}")
    return pending


def read_input_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` sets each
    call's defaults afresh and copies an ``append`` list before adding to
    it, so no call sees another's arguments."""
    parser = argparse.ArgumentParser(
        prog="bloff",
        description="Anchor log digests on a permissioned chain and verify them later.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a keypair file")
    p.add_argument("--out", required=True, help="key file to write")
    p.add_argument("--seed-hex", help="32-byte seed as hex (testing only; default random)")

    p = sub.add_parser("genesis", help="create a chain file with its genesis block")
    p.add_argument(
        "--authority",
        action="append",
        required=True,
        metavar="KEYFILE",
        help="authority key file; registered as a csp-miner (repeatable)",
    )
    p.add_argument("--out", default=None, help="chain file to create (default $BLOFF_HOME/chain.jsonl)")
    p.add_argument("--timestamp", type=int, default=None)

    p = sub.add_parser("submit", help="anchor log records (or sponsor a registration)")
    p.add_argument("--key", required=True, help="submitter key file")
    p.add_argument("--chain", default=None, help="chain file or node host:port")
    p.add_argument("--log", default=None, help="log file to anchor, or - for stdin")
    p.add_argument("--source-id", default="", help="identifier of the producing device/layer")
    p.add_argument("--mempool", default=None, help="pending-tx file (file targets only)")
    p.add_argument("--register", metavar="PUBKEY_HEX", help="sponsor a registration instead")
    p.add_argument("--role", choices=[r.value for r in NodeRole], help="role for --register")

    p = sub.add_parser("mine", help="seal pending transactions into a block")
    p.add_argument("--key", required=True, help="csp-miner key file")
    p.add_argument("--chain", default=None, help="chain file (mining needs local state)")
    p.add_argument("--difficulty", type=int, default=0)
    p.add_argument("--timestamp", type=int, default=None)
    p.add_argument("--mempool", default=None)
    p.add_argument("--all", action="store_true", help="mine until the pool is drained")

    p = sub.add_parser("verify", help="check whether a presented log is anchored")
    p.add_argument("--chain", default=None, help="chain file or node host:port")
    p.add_argument("--log", required=True, help="log file to verify, or - for stdin")
    p.add_argument("--min-confirmations", type=int, default=1)
    p.add_argument("--custody", help="attestations file (JSON lines)")
    p.add_argument("--proof-out", help="write an inclusion proof for the first match")
    p.add_argument("--expect-submitter", metavar="PUBKEY_HEX", help="only accept anchors from this key")

    p = sub.add_parser("inspect", help="print blocks or transactions as JSON")
    p.add_argument("--chain", default=None)
    p.add_argument("--height", type=int, help="print the block at this height (1-based)")
    p.add_argument("--tx", metavar="TXID_HEX", help="print the transaction with this id")

    p = sub.add_parser("node", help="run a long-lived node")
    p.add_argument("--role", required=True, choices=[r.value for r in NodeRole])
    p.add_argument("--key", required=True)
    p.add_argument("--chain", default=None)
    p.add_argument("--listen", help="host:port to accept peers on")
    p.add_argument("--peer", action="append", default=[], help="peer host:port (repeatable)")
    p.add_argument("--difficulty", type=int, default=0)

    p = sub.add_parser("simulate", help="run a scripted multi-node scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--trace", action="store_true", help="also print the event trace")

    return parser


def cmd_keygen(args) -> int:
    seed = hex_to_bytes(args.seed_hex, 32) if args.seed_hex else os.urandom(32)
    keypair = generate_keypair(seed)
    save_keypair(args.out, keypair)
    print(f"public: {keypair.public_key.hex()}")
    print(f"node_id: {node_id(keypair.public_key)}")
    return 0


def cmd_genesis(args) -> int:
    authorities = [load_keypair(path) for path in args.authority]
    timestamp = args.timestamp if args.timestamp is not None else int(time.time())
    genesis = make_genesis(authorities, timestamp)
    out = args.out or default_chain_path()
    with store_mod.writer_lock(out, create=True):
        BlockStore.create(out, genesis)
    print(f"genesis: {genesis.hash.hex()}")
    print(f"chain: {out}")
    return 0


def _records_from_arg(log_arg: str, source_id: str) -> list[LogRecord]:
    if log_arg == "-":
        source = LogSource(kind="standard-input", source_id=source_id)
    else:
        source = LogSource(kind="file", source_id=source_id, location=log_arg)
    return list(ingest(source))


def cmd_submit(args) -> int:
    keypair = load_keypair(args.key)
    target = args.chain or default_chain_path()

    txs: list[Transaction] = []
    if args.register:
        if not args.role:
            print("--register requires --role", file=sys.stderr)
            return 2
        new_pubkey = hex_to_bytes(args.register, 32)
        txs.append(build_registration_tx(new_pubkey, NodeRole(args.role), keypair))
        records = []
    else:
        if not args.log:
            print("submit needs --log (or --register)", file=sys.stderr)
            return 2
        records = _records_from_arg(args.log, args.source_id)
        txs.extend(build_anchor_for_record(record, keypair) for record in records)
    if not txs:
        print("nothing to submit", file=sys.stderr)
        return 2

    to_node = is_address(target)
    with contextlib.nullcontext() if to_node else store_mod.writer_lock(target):
        pending: list[Transaction] = []
        if to_node:
            chain = load_chain_target(target)
        else:
            chain = BlockStore.open(target, keypair).chain
            pool_path = mempool_path_for(target, args.mempool)
            pending = [tx for tx in load_pending(pool_path) if isinstance(tx, RegistrationTransaction)]
        # Pending registrations count first, as a miner drawing from the same pool would take them.
        pool = Mempool(capacity=len(pending) + len(txs))
        for tx in pending:
            pool.add(tx, chain)
        for tx in txs:
            pool.verified.add(tx.id)  # just signed by the loaded key: no verify can refuse it
            status = pool.add(tx, chain)
            if status != "accepted":
                print(f"rejected: {status.removeprefix('invalid:')}", file=sys.stderr)
                return 2
        if to_node:
            send_txs(target, txs)
        else:
            store_mod.append_mempool_file(pool_path, [tx.raw for tx in txs])

    for tx in txs:
        if isinstance(tx, AnchorTransaction):
            print(f"{tx.id.hex()} {tx.log_hash.hex()}")
        else:
            print(f"{tx.id.hex()} registration:{tx.new_node_pubkey.hex()}")
    return 0


def cmd_mine(args) -> int:
    keypair = load_keypair(args.key)
    target = args.chain or default_chain_path()
    if is_address(target):
        print("mine needs a local chain file; nodes mine on their own", file=sys.stderr)
        return 2
    pool_path = mempool_path_for(target, args.mempool)
    with store_mod.writer_lock(target):
        pending = load_pending(pool_path)
        # The pool holds the whole file, so a pending tx leaves it only when it
        # is mined or invalid.
        pool = Mempool(capacity=len(pending))
        store = BlockStore.open(target, keypair)
        for tx in pending:
            status = tx if isinstance(tx, str) else pool.add(tx, store.chain)
            if status.startswith("invalid"):
                print(f"skipping pending tx: {status}", file=sys.stderr)

        mined_any = False
        status = 0
        while True:
            timestamp = args.timestamp if args.timestamp is not None else int(time.time())
            try:
                block = mine_block(
                    pool,
                    store.chain.tip.header,
                    args.difficulty,
                    keypair,
                    timestamp,
                    store.chain.registered_nodes,
                )
            except MiningError as exc:
                if not mined_any or exc.reason != "no-work":
                    print(f"mining failed: {exc.reason}", file=sys.stderr)
                    status = 2
                break
            store.append_block(block, pool.verified)
            pool.evict(block.tx_ids)
            mined_any = True
            print(
                json.dumps(
                    {
                        "height": store.chain.height,
                        "block_hash": block.hash.hex(),
                        "nonce": block.header.nonce,
                        "txs": len(block.transactions),
                    }
                )
            )
            if not args.all:
                break
        # Written on failure too, so txs skipped above are not read again.
        store_mod.write_mempool_file(pool_path, [tx.raw for tx in pool.oldest()])
    return status


def cmd_verify(args) -> int:
    target = args.chain or default_chain_path()
    chain = load_chain_target(target)
    log = read_input_bytes(args.log)
    expected = hex_to_bytes(args.expect_submitter, 32) if args.expect_submitter else None

    if args.custody:
        attestations = []
        with open(args.custody, "r", encoding="utf-8", errors="replace") as fh:
            for line in fh.read().splitlines():
                if not line:
                    continue
                try:
                    attestations.append(parse_attestation_line(line))
                except (ValueError, KeyError, TypeError, RecursionError):
                    attestations.append(None)
        report = verify_custody(log, attestations, chain, min_confirmations=args.min_confirmations)
        print(json.dumps(report.to_dict(), separators=(",", ":")))
        verdict = report.verdict
        ok = report.overall_pass
    else:
        verdict = verify_log(
            log, chain, min_confirmations=args.min_confirmations, expected_submitter=expected
        )
        print(verdict.to_json())
        ok = verdict.accepted

    if args.proof_out and verdict.accepted:
        match = verdict.matches[0]
        proof = make_inclusion_proof(chain, match.height, match.tx_id)
        with open(args.proof_out, "w", encoding="utf-8") as fh:
            fh.write(proof.to_json() + "\n")

    return 0 if ok else 1


def cmd_inspect(args) -> int:
    target = args.chain or default_chain_path()
    chain = load_chain_target(target)
    if args.tx:
        wanted = Digest.from_hex(args.tx)
        for height, block in enumerate(chain.blocks, start=1):
            for tx in block.transactions:
                if tx.id == wanted:
                    obj = tx_to_dict(tx)
                    obj["height"] = height
                    print(json.dumps(obj, indent=2))
                    return 0
        print("transaction not found", file=sys.stderr)
        return 2
    if args.height is not None:
        if not 1 <= args.height <= chain.height:
            print(f"height out of range 1..{chain.height}", file=sys.stderr)
            return 2
        block = chain.blocks[args.height - 1]
        obj = json.loads(block_to_json_line(block))
        obj["txs"] = [tx_to_dict(tx) for tx in block.transactions]
        obj["height"] = args.height
        print(json.dumps(obj, indent=2))
        return 0
    for height, block in enumerate(chain.blocks, start=1):
        print(
            json.dumps(
                {
                    "height": height,
                    "block_hash": block.hash.hex(),
                    "timestamp": block.header.timestamp,
                    "txs": len(block.transactions),
                }
            )
        )
    return 0


def cmd_node(args) -> int:
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(message)s")
    config = NodeConfig(
        role=NodeRole(args.role),
        key_path=args.key,
        chain_path=args.chain or default_chain_path(),
        difficulty=args.difficulty,
        listen=args.listen,
        peers=args.peer,
    )
    run_node(config)
    return 0


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    result = run_scenario(scenario, seed_override=args.seed)
    print(json.dumps(result.report, sort_keys=True, indent=2))
    if args.trace:
        for line in result.events:
            print(line)
    return 0


_COMMANDS = {
    "keygen": cmd_keygen,
    "genesis": cmd_genesis,
    "submit": cmd_submit,
    "mine": cmd_mine,
    "verify": cmd_verify,
    "inspect": cmd_inspect,
    "node": cmd_node,
    "simulate": cmd_simulate,
}


def handle_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (
        StoreError,
        ChainFileError,
        ChainValidationError,
        RecordError,
        SourceError,
        MiningError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(handle_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
