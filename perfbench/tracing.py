"""Per-layer tracing, installed from outside the program for a traced run.

Each traced function is replaced under every name a bloff module binds it
to (``ledger`` and ``verify`` each import ``verify_signature`` themselves),
and restored afterwards. A span records name, start, end, parent span and
op; a layer's self time is its span minus the time its child spans cover.
Spans stay in memory and are written out once the run ends.

The chain store's file writes and fsyncs are counted by giving the ``store``
module its own ``open`` and ``os`` that count and pass everything through.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

# Every per-layer metric the traced run prints, with its unit. Workloads on
# which a layer does no work print 0 for it.
NODE_KINDS = ("tx-gossip", "block-gossip", "chain-request", "chain-response")
PER_LAYER = (
    [
        ("crypto.verify_signature.calls", "count"),
        ("crypto.verify_signature.ms", "ms"),
        ("crypto.sign.calls", "count"),
        ("crypto.sign.ms", "ms"),
        ("ledger.validate_chain.calls", "count"),
        ("ledger.validate_chain.blocks", "count"),
        ("ledger.validate_chain.ms", "ms"),
        ("ledger.validate_block.calls", "count"),
        ("ledger.verify_tx.calls", "count"),
        ("ledger.block_from_json_line.ms", "ms"),
        ("ledger.block_to_json_line.ms", "ms"),
        ("ledger.merkle_root.ms", "ms"),
        ("ledger.encode_blocks.bytes", "B"),
        ("ledger.encode_blocks.ms", "ms"),
        ("ledger.decode_blocks.ms", "ms"),
        ("consensus.mine_block.ms", "ms"),
        ("consensus.mine_block.nonces", "count"),
        ("consensus.Mempool.add.calls", "count"),
        ("consensus.NodeState.apply_block.calls", "count"),
        ("consensus.NodeState.apply_block.ms", "ms"),
        ("consensus.NodeState.adopt_chain.calls", "count"),
        ("consensus.NodeState.adopt_chain.ms", "ms"),
        ("store.load_chain.calls", "count"),
        ("store.load_chain.ms", "ms"),
        ("store.BlockStore.append_block.calls", "count"),
        ("store.BlockStore.append_block.ms", "ms"),
        ("store.fsyncs", "count"),
        ("store.bytes_written", "B"),
        ("ingest.ingest.records", "count"),
        ("ingest.ingest.ms", "ms"),
        ("verify.verify_log.ms", "ms"),
        ("verify.make_inclusion_proof.ms", "ms"),
        ("verify.verify_custody.ms", "ms"),
    ]
    + [
        (f"node.handle_message.{kind}.{what}", unit)
        for kind in NODE_KINDS
        for what, unit in (("calls", "count"), ("ms", "ms"), ("bytes_out", "B"))
    ]
    + [
        ("simnet.SimNetwork.step.ms", "ms"),
        ("simnet.messages.enqueued", "count"),
        ("simnet.messages.delivered", "count"),
        ("cli.submit.ms", "ms"),
        ("cli.mine.ms", "ms"),
        ("cli.verify.ms", "ms"),
        ("ratio.sig_verifies_per_record", "ratio"),
        ("ratio.blocks_validated_per_block", "ratio"),
        ("trace.overhead_pct", "%"),
    ]
)

MAX_KEPT_SPANS = 200_000


class Tracer:
    """Span stack, per-name call counts and self times, and counters."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.op = None
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def _begin(self):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, 0.0])
        return parent, time.perf_counter()

    def _end(self, name: str, parent, start: float) -> None:
        end = time.perf_counter()
        span_id, children = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - children
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((span_id, parent, self.op, name, start, end))
        else:
            self.dropped_spans += 1

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        parent, start = self._begin()
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(name, parent, start)

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` may add counters.

        ``name`` may be a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            parent, start = tracer._begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(label, parent, start)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "bloff" and not module_name.startswith("bloff."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _replace_method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        # ``bloff.ingest`` names the function the package re-exports, so the
        # modules are looked up by their full names.
        consensus, crypto, ingest, ledger, node, simnet, store, verify = (
            importlib.import_module(f"bloff.{name}")
            for name in ("consensus", "crypto", "ingest", "ledger", "node", "simnet", "store", "verify")
        )
        count = self.counters

        def add(key, amount):
            count[key] += amount

        functions = [
            (crypto.verify_signature, "crypto.verify_signature", None),
            (crypto.sign, "crypto.sign", None),
            (
                ledger.validate_chain,
                "ledger.validate_chain",
                lambda a, r: add("ledger.validate_chain.blocks", len(a[0])),
            ),
            (ledger.validate_block, "ledger.validate_block", None),
            (ledger.verify_tx, "ledger.verify_tx", None),
            (ledger.block_from_json_line, "ledger.block_from_json_line", None),
            (ledger.block_to_json_line, "ledger.block_to_json_line", None),
            (ledger.merkle_root, "ledger.merkle_root", None),
            (
                ledger.encode_blocks,
                "ledger.encode_blocks",
                lambda a, r: add("ledger.encode_blocks.bytes", len(r)),
            ),
            (ledger.decode_blocks, "ledger.decode_blocks", None),
            (
                consensus.mine_block,
                "consensus.mine_block",
                # The nonce search starts at 0, so nonce + 1 values were tried.
                lambda a, r: add("consensus.mine_block.nonces", r.header.nonce + 1),
            ),
            (store.load_chain, "store.load_chain", None),
            (verify.verify_log, "verify.verify_log", None),
            (verify.make_inclusion_proof, "verify.make_inclusion_proof", None),
            (verify.verify_custody, "verify.verify_custody", None),
        ]
        for fn, name, after in functions:
            self._replace_everywhere(fn, self.wrap(name, fn, after))
        self._replace_everywhere(ingest.ingest, self._wrap_ingest(ingest.ingest))

        def bytes_out(args, result):
            add(f"node.handle_message.{args[1]}.bytes_out", sum(len(m[1]) for m in result))

        methods = [
            (consensus.Mempool, "add", "consensus.Mempool.add", None),
            (consensus.NodeState, "apply_block", "consensus.NodeState.apply_block", None),
            (consensus.NodeState, "adopt_chain", "consensus.NodeState.adopt_chain", None),
            (store.BlockStore, "append_block", "store.BlockStore.append_block", None),
            (
                node.NodeLogic,
                "handle_message",
                lambda a: f"node.handle_message.{a[1]}",
                bytes_out,
            ),
            (simnet.SimNetwork, "step", "simnet.SimNetwork.step", None),
        ]
        for cls, attr, name, after in methods:
            self._replace_method(cls, attr, self.wrap(name, cls.__dict__[attr], after))

        store.open = _counting_open(count)
        store.os = _CountingOs(count)
        self._undo.append((store, "open", None))
        self._undo.append((store, "os", os))

    def _wrap_ingest(self, original):
        """``ingest`` is a generator: time draining it, hand back the records."""
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            records = tracer.span("ingest.ingest", lambda: list(original(*args, **kwargs)))
            tracer.counters["ingest.ingest.records"] += len(records)
            return iter(records)

        return traced

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, records: int, final_blocks: int) -> dict[str, float]:
        """Every PER_LAYER metric; the caller fills in ``trace.overhead_pct``."""
        values: dict[str, float] = {}
        for name, unit in PER_LAYER:
            base, _, what = name.rpartition(".")
            if what == "calls":
                values[name] = self.calls.get(base, 0)
            elif what == "ms":
                values[name] = round(self.self_s.get(base, 0.0) * 1000, 4)
            else:
                values[name] = self.counters.get(name, 0)
        values["ratio.sig_verifies_per_record"] = round(
            self.calls.get("crypto.verify_signature", 0) / max(records, 1), 4
        )
        values["ratio.blocks_validated_per_block"] = round(
            self.calls.get("ledger.validate_block", 0) / max(final_blocks, 1), 4
        )
        return values

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"dropped_spans": self.dropped_spans}) + "\n")
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "op": op, "name": name,
                         "start": round(start, 7), "end": round(end, 7)}
                    )
                    + "\n"
                )


class _CountingFile:
    """A file object whose writes add their byte count to a counter."""

    def __init__(self, fh, counters):
        self._fh = fh
        self._counters = counters

    def write(self, data):
        size = len(data.encode(self._fh.encoding) if isinstance(data, str) else data)
        self._counters["store.bytes_written"] += size
        return self._fh.write(data)

    def __enter__(self):
        self._fh.__enter__()
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __getattr__(self, attr):
        return getattr(self._fh, attr)


def _counting_open(counters):
    def counting_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if any(flag in mode for flag in "wax+"):
            return _CountingFile(fh, counters)
        return fh

    return counting_open


class _CountingOs:
    """The ``os`` module as seen from ``store``, with fsyncs counted."""

    def __init__(self, counters):
        self._counters = counters

    def fsync(self, fd):
        self._counters["store.fsyncs"] += 1
        return os.fsync(fd)

    def __getattr__(self, attr):
        return getattr(os, attr)
