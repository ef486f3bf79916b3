"""Deterministic network fabric: latency, drops, partitions, convergence."""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from bloff.ledger import NodeRole
from bloff.node import (
    BROADCAST,
    MSG_BLOCK,
    MSG_CHAIN_REQUEST,
    MSG_CHAIN_RESPONSE,
    MSG_TX,
    NodeLogic,
)
from bloff.simnet import SimNetwork, build_sim, run_scenario, sim_keypair
from conftest import partition_scenario


def two_node_line(drop_rate=0.0, latency=1):
    return build_sim(
        seed=1,
        node_specs=[("a", NodeRole.CSP_MINER), ("b", NodeRole.CSP_MINER)],
        edges=[("a", "b", latency)],
        drop_rate=drop_rate,
    )


def ring_of_five():
    names = ["m1", "n2", "n3", "n4", "n5"]
    specs = [("m1", NodeRole.CSP_MINER)] + [(n, NodeRole.STAKEHOLDER) for n in names[1:]]
    edges = [(names[i], names[(i + 1) % 5], 1) for i in range(5)]
    return build_sim(seed=3, node_specs=specs, edges=edges)


def submit_own_log(net, node_id, text, tick=None):
    """A csp-miner anchors one of its own log lines (miners may anchor)."""
    from bloff.ingest import LogRecord, build_anchor_for_record

    node = net.nodes[node_id]
    record = LogRecord(
        raw=text.encode(), source_id=node_id,
        capture_timestamp=net.genesis_timestamp + (tick if tick is not None else net.tick),
    )
    tx = build_anchor_for_record(record, node.keypair)
    assert net.submit(node_id, tx) == "ok"
    return tx


class TestDelivery:
    def test_latency_one_means_next_tick(self):
        net = two_node_line()
        submit_own_log(net, "a", "hello")
        assert len(net._queue) == 1
        assert net.step() == 1  # tick 1: b receives
        assert len(net.nodes["b"].logic.state.mempool) == 1

    def test_higher_latency_delays_arrival(self):
        net = two_node_line(latency=3)
        submit_own_log(net, "a", "hello")
        assert net.step() == 0
        assert net.step() == 0
        assert net.step() == 1

    def test_empty_queue_zero_delivered(self):
        net = two_node_line()
        assert net.step() == 0

    def test_drop_rate_one_delivers_nothing(self):
        net = two_node_line(drop_rate=1.0)
        submit_own_log(net, "a", "hello")
        for _ in range(5):
            assert net.step() == 0
        assert len(net.nodes["b"].logic.state.mempool) == 0

    def test_unknown_origin_rejected(self):
        net = two_node_line()
        with pytest.raises(ValueError):
            net.send_from("zz", [(MSG_TX, b"payload", BROADCAST)])

    def test_block_reaches_ring_within_3_ticks(self):
        net = ring_of_five()
        submit_own_log(net, "m1", "ring payload")
        net.step()  # gossip the tx
        block = net.nodes["m1"].logic.maybe_mine(net.genesis_timestamp + net.tick)
        assert block is not None
        net.send_from("m1", net.nodes["m1"].logic.block_messages(block))
        start = net.tick
        while net.tick < start + 3:
            net.step()
        for node in net.nodes.values():
            assert node.logic.chain.tip.hash == block.hash

    def test_no_spontaneous_messages(self):
        net = ring_of_five()
        submit_own_log(net, "m1", "payload")
        net.run_to_quiescence(50)
        assert net.delivered_count <= len(net.captured_payloads)
        deliver_events = [e for e in net.events if " deliver " in e]
        assert len(deliver_events) == net.delivered_count


class TestNoEcho:
    def test_gossip_crosses_each_edge_of_a_line_once(self):
        """On a 3-node line, a relayed tx and a relayed block are each sent
        once per edge, never back to the neighbour they came from."""
        net = build_sim(
            seed=1,
            node_specs=[("a", NodeRole.CSP_MINER), ("b", NodeRole.STAKEHOLDER), ("c", NodeRole.STAKEHOLDER)],
            edges=[("a", "b", 1), ("b", "c", 1)],
        )
        submit_own_log(net, "a", "line payload")
        net.run_to_quiescence(20)
        assert len(net.captured_payloads) == 2
        block = net.nodes["a"].logic.maybe_mine(net.genesis_timestamp + net.tick)
        net.send_from("a", net.nodes["a"].logic.block_messages(block))
        net.run_to_quiescence(40)
        assert len(net.captured_payloads) == 4
        assert all(node.logic.chain.tip.hash == block.hash for node in net.nodes.values())

    def test_partition_scenario_chain_response_bytes(self, monkeypatch):
        """Payload bytes per message kind over the scenario. Locator requests
        and run pushes carry only missing blocks (chain-response bytes were
        27,676 with full-chain replies). A gossiped block carries tx ids, not
        txs: block-gossip fell from 13,293 B to 5,336 B, and the fill-ins
        for txs one side of the partition never saw raised chain-request from
        2,112 B and chain-response from 5,194 B. The total was 27,388 B."""
        sent = Counter()
        enqueue = SimNetwork._enqueue

        def recording(self, kind, payload, sender, recipient):
            sent[kind] += len(payload)
            enqueue(self, kind, payload, sender, recipient)

        monkeypatch.setattr(SimNetwork, "_enqueue", recording)
        assert run_scenario(partition_scenario()).report["converged"]
        assert sent == {
            MSG_TX: 6_789,
            MSG_BLOCK: 5_336,
            MSG_CHAIN_REQUEST: 2_560,
            MSG_CHAIN_RESPONSE: 7_839,
        }
        assert sum(sent.values()) < 27_388


class TestPartitions:
    def test_severed_edge_never_delivers_directly(self):
        net = two_node_line()
        net.set_partition([["a"], ["b"]])
        submit_own_log(net, "a", "hello")
        for _ in range(5):
            net.step()
        assert len(net.nodes["b"].logic.state.mempool) == 0

    def test_overlapping_groups_rejected(self):
        net = ring_of_five()
        with pytest.raises(ValueError):
            net.set_partition([["m1", "n2"], ["n2", "n3"]])

    def test_mined_blocks_unseen_across_cut(self):
        net = ring_of_five()
        submit_own_log(net, "m1", "pre-partition")
        net.step()
        net.set_partition([["m1", "n2"], ["n3", "n4", "n5"]])
        block = net.nodes["m1"].logic.maybe_mine(net.genesis_timestamp + net.tick)
        net.send_from("m1", net.nodes["m1"].logic.block_messages(block))
        for _ in range(10):
            net.step()
        assert net.nodes["n2"].logic.chain.tip.hash == block.hash
        for other in ("n3", "n4", "n5"):
            assert net.nodes[other].logic.chain.tip.hash != block.hash

    def test_heal_without_divergence_changes_no_tips(self):
        net = ring_of_five()
        tips_before = {n: node.logic.chain.tip.hash for n, node in net.nodes.items()}
        net.set_partition([["m1", "n2"], ["n3", "n4", "n5"]])
        net.heal()
        net.run_to_quiescence(30)
        assert {n: node.logic.chain.tip.hash for n, node in net.nodes.items()} == tips_before

    def test_heal_after_divergence_converges_to_fork_winner(self):
        scenario = partition_scenario()
        result = run_scenario(scenario)
        assert result.report["converged"], result.report
        heights = {info["height"] for info in result.report["nodes"].values()}
        # genesis + registrations + pre-partition anchors + 4 winning-side
        # blocks + the post-heal sweep block = 8
        assert heights == {8}


class TestScenarioDeterminism:
    def test_same_seed_identical_trace_and_report(self):
        scenario = partition_scenario()
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.events == second.events
        assert first.report == second.report

    def test_seed_changes_keys_but_still_converges(self):
        scenario = partition_scenario()
        a = run_scenario(scenario, seed_override=7)
        b = run_scenario(scenario, seed_override=99)
        assert a.report["converged"] and b.report["converged"]
        assert a.report["nodes"]["m1"]["tip"] != b.report["nodes"]["m1"]["tip"]

    def test_partition_scenario_traffic_is_pinned(self):
        """The reports and event traces of ``partition_scenario`` at seeds 1-4,
        difficulty 0 and 2 and drop rate 0 and 0.05 hash to the digest recorded
        when gossip last changed. A change to gossip made on purpose updates
        the digest; any other change to it is a regression."""
        digest = hashlib.sha256()
        for seed in range(1, 5):
            for difficulty in (0, 2):
                for drop_rate in (0.0, 0.05):
                    scenario = {**partition_scenario(seed, difficulty), "drop_rate": drop_rate}
                    result = run_scenario(scenario)
                    digest.update(json.dumps(result.report, sort_keys=True).encode())
                    digest.update("".join(f"{line}\n" for line in result.events).encode())
        assert digest.hexdigest() == (
            "2282f17e88daf4b89bffd8887316c782bff615bd9e0490852255bc0ca7fe975d"
        )

    def test_mixed_latency_scenario_traffic_is_pinned(self):
        """``partition_scenario``'s script on a five-node ring with one chord,
        latencies 1-3 and drop rate 0.1, its partition leaving ``s1`` in the
        implicit remainder group. Messages due on one tick were enqueued on
        different ticks, so the digest pins delivery in tick, then enqueue,
        order."""
        ring = ["m1", "d1", "s1", "d2", "m2"]
        links = [(a, b, 1 + i % 3) for i, (a, b) in enumerate(zip(ring, ring[1:] + ring[:1]))]
        edges = [{"a": a, "b": b, "latency": latency} for a, b, latency in links]
        edges.append({"a": "m1", "b": "s1", "latency": 3})
        digest = hashlib.sha256()
        for seed in range(1, 5):
            scenario = {**partition_scenario(seed, 0), "drop_rate": 0.1, "edges": edges}
            for action in scenario["actions"]:
                if action["type"] == "partition":
                    action["groups"] = [["m1", "d1"], ["m2", "d2"]]
            result = run_scenario(scenario)
            digest.update(json.dumps(result.report, sort_keys=True).encode())
            digest.update("".join(f"{line}\n" for line in result.events).encode())
        assert digest.hexdigest() == (
            "9b6213536dc9d2a1d1193f166829e9677040ffd6987dc56b62473ad198b64a81"
        )

    def test_sim_keys_deterministic(self):
        assert sim_keypair(7, "m1") == sim_keypair(7, "m1")
        assert sim_keypair(7, "m1") != sim_keypair(8, "m1")


class TestReadme:
    def test_simulation_example_anchors_its_log_on_every_node(self):
        """README's scenario, run exactly as written, converges with the
        submitted log anchored once on each node."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        section = readme.split("## Deterministic simulation")[1]
        scenario = json.loads(section.split("```json\n")[1].split("```")[0])
        report = run_scenario(scenario).report
        assert report["converged"]
        assert [info["anchors"] for info in report["nodes"].values()] == [1, 1]


class TestEventualConsistency:
    def test_connected_topology_reaches_one_tip_and_index(self):
        scenario = partition_scenario()
        result = run_scenario(scenario)
        tips = {info["tip"] for info in result.report["nodes"].values()}
        digests = {info["index_digest"] for info in result.report["nodes"].values()}
        assert len(tips) == 1
        assert len(digests) == 1
        # The sweep block must have restored the losing side's anchors:
        # 2 pre-partition + 4 winning side + 3 re-anchored = 9 anchors.
        anchors = {info["anchors"] for info in result.report["nodes"].values()}
        assert anchors == {9}

    def test_live_and_sim_share_the_state_machine(self):
        """Both transports must drive the exact same NodeLogic class."""
        from bloff.node import LiveNode

        net = two_node_line()
        assert isinstance(net.nodes["a"].logic, NodeLogic)
        assert LiveNode.__init__.__module__ == NodeLogic.__module__
        import inspect

        live_source = inspect.getsource(LiveNode)
        assert "NodeLogic(" in live_source
