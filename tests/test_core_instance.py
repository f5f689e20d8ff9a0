"""YODA instance integration: the paper's mechanisms at packet level.

Everything here runs against a real wired deployment (L4 LB + instances +
TCPStore + backends) built by the experiment harness.
"""

import pytest

from repro.core.flowstate import yoda_isn
from repro.experiments.harness import Testbed, TestbedConfig
from repro.http.client import BrowserClient
from repro.net.addresses import Endpoint
from repro.net.packet import ACK, SYN
from repro.sim.tracing import PacketTrace

VIP_EP = Endpoint("100.0.0.1", 80)


def make_bed(**overrides) -> Testbed:
    defaults = dict(
        seed=99, lb="yoda", num_lb_instances=4, num_store_servers=3,
        num_backends=3, corpus="flat", flat_object_count=3,
        flat_object_bytes=30_000, client_jitter=0.0, trace_packets=True,
    )
    defaults.update(overrides)
    return Testbed(TestbedConfig(**defaults))


def fetch(bed, path="/obj/0.bin", timeout=30.0, retries=0, deadline=120.0):
    results = []
    browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target(),
                            http_timeout=timeout, retries=retries)
    browser.fetch(path, results.append)
    bed.run(deadline)
    assert results, "fetch never concluded"
    return results[0]


def serving_instance(bed):
    for inst in bed.yoda.instances:
        if inst.flows:
            return inst
    return None


class TestBasicOperation:
    def test_end_to_end_fetch_through_vip(self):
        bed = make_bed()
        result = fetch(bed)
        assert result.ok
        assert len(result.response.body) == 30_000

    def test_client_only_ever_talks_to_vip(self):
        bed = make_bed()
        fetch(bed)
        for rec in bed.trace.filter(point="client-0", direction="rx"):
            assert rec.src == VIP_EP, rec

    def test_server_only_ever_talks_to_vip(self):
        bed = make_bed()
        fetch(bed)
        for rec in bed.trace.filter(point="srv-0", direction="rx"):
            assert rec.src.ip == "100.0.0.1", rec

    def test_synack_isn_is_the_hash(self):
        bed = make_bed()
        fetch(bed)
        synacks = [r for r in bed.trace.filter(point="client-0", direction="rx")
                   if r.flags == SYN | ACK]
        assert synacks
        assert synacks[0].seq == yoda_isn(synacks[0].dst, VIP_EP)

    def test_server_syn_reuses_client_isn(self):
        """The paper's trick: client->server bytes need no seq rewriting."""
        bed = make_bed()
        fetch(bed)
        client_syns = [r for r in bed.trace.records
                       if r.flags == SYN and r.dst == VIP_EP]
        server_syns = [r for r in bed.trace.records
                       if r.flags == SYN and r.dst.ip.startswith("10.3.")]
        assert client_syns and server_syns
        assert server_syns[0].seq == client_syns[0].seq

    def test_flow_state_cleaned_up_after_completion(self):
        bed = make_bed()
        fetch(bed)
        bed.run(40.0)  # linger + gc
        for inst in bed.yoda.instances:
            assert not inst.flows
        live_keys = sum(len(s) for s in bed.yoda.store_servers)
        assert live_keys == 0

    def test_storage_before_synack_ordering(self):
        """storage-a completes before the SYN-ACK leaves (Figure 3)."""
        bed = make_bed()
        fetch(bed)
        synack = next(r for r in bed.trace.records if r.flags == SYN | ACK
                      and r.src.ip == "100.0.0.1")
        stores = [r for r in bed.trace.records
                  if r.dst.port == 11211 and r.time <= synack.time]
        assert stores, "no TCPStore write before the SYN-ACK"

    def test_traffic_accounting_per_vip(self):
        bed = make_bed()
        fetch(bed)
        bed.run(1.0)  # let the monitor collect instance counters
        assert bed.yoda.controller.traffic_stats.get("100.0.0.1", 0) > 0


class TestFailureRecovery:
    @pytest.mark.parametrize("fail_after", [0.05, 0.2, 0.5])
    def test_flow_survives_instance_failure(self, fail_after):
        bed = make_bed(flat_object_bytes=1_500_000)
        results = []
        browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target())
        browser.fetch("/obj/0.bin", results.append)
        bed.loop.call_later(fail_after, lambda: (
            serving_instance(bed).fail() if serving_instance(bed) else None
        ))
        bed.run(120.0)
        assert results and results[0].ok, "flow broke across instance failure"

    def test_recovery_uses_tcpstore(self):
        bed = make_bed(flat_object_bytes=1_500_000)
        results = []
        browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target())
        browser.fetch("/obj/0.bin", results.append)
        bed.loop.call_later(0.4, lambda: serving_instance(bed).fail())
        bed.run(120.0)
        recoveries = sum(
            inst.metrics.counters["flows_recovered"].value
            for inst in bed.yoda.instances
            if "flows_recovered" in inst.metrics.counters
        )
        assert recoveries >= 1
        assert results[0].ok

    def test_client_never_resends_http_request_on_failure(self):
        bed = make_bed(flat_object_bytes=1_500_000)
        results = []
        browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target())
        browser.fetch("/obj/0.bin", results.append)
        bed.loop.call_later(0.4, lambda: serving_instance(bed).fail())
        bed.run(120.0)
        assert results[0].ok
        assert results[0].retries_used == 0

    def test_failure_before_synack_client_syn_retry_starts_fresh(self):
        bed = make_bed()
        # fail every instance before the client connects, then recover
        # them all except one: the retransmitted SYN lands on a live one
        for inst in bed.yoda.instances:
            inst.fail()
        results = []
        browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target())
        browser.fetch("/obj/0.bin", results.append)

        def recover_all():
            for inst in bed.yoda.instances:
                inst.recover()

        bed.loop.call_later(1.0, recover_all)
        bed.run(60.0)
        assert results and results[0].ok

    def test_two_simultaneous_failures(self):
        bed = make_bed(num_lb_instances=6, flat_object_bytes=1_500_000)
        results = []
        browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target())
        browser.fetch("/obj/0.bin", results.append)

        def fail_two():
            victims = [i for i in bed.yoda.instances][:2]
            serving = serving_instance(bed)
            if serving is not None and serving not in victims:
                victims[0] = serving
            for v in victims:
                v.fail()

        bed.loop.call_later(0.4, fail_two)
        bed.run(120.0)
        assert results and results[0].ok

    def test_recovered_instance_translation_is_seamless(self):
        """After recovery the client sees perfectly contiguous bytes."""
        bed = make_bed(flat_object_bytes=800_000)
        results = []
        browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target())
        browser.fetch("/obj/0.bin", results.append)
        bed.loop.call_later(0.3, lambda: serving_instance(bed).fail())
        bed.run(120.0)
        assert results[0].ok
        assert len(results[0].response.body) == 800_000


class TestElasticity:
    def test_graceful_instance_removal_keeps_flows(self):
        bed = make_bed(flat_object_bytes=1_500_000)
        results = []
        browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target())
        browser.fetch("/obj/0.bin", results.append)

        def drain_serving():
            inst = serving_instance(bed)
            if inst is not None:
                bed.yoda.controller.remove_instance(inst.name)

        bed.loop.call_later(0.4, drain_serving)
        bed.run(120.0)
        assert results and results[0].ok

    def test_added_instance_receives_new_flows(self):
        bed = make_bed(num_lb_instances=1)
        spare = bed.yoda.new_spare_instance()
        bed.yoda.controller.add_instance(spare)
        bed.run(1.0)
        for port_offset in range(30):
            fetch(bed, deadline=3.0)
        got = spare.metrics.counters.get("flows_opened")
        assert got is not None and got.value > 0


class TestPolicyBehaviour:
    def test_policy_update_does_not_break_inflight_flow(self):
        bed = make_bed(flat_object_bytes=1_500_000)
        results = []
        browser = BrowserClient(bed.client_stacks[0], bed.loop, bed.target())
        browser.fetch("/obj/0.bin", results.append)

        def flip_policy():
            from repro.core.policy import weighted_split

            controller = bed.yoda.controller
            new = controller.policies[bed.vip].updated(
                rules=[weighted_split("only-2", "*", {"srv-2": 1.0})]
            )
            controller.update_policy(new)

        bed.loop.call_later(0.3, flip_policy)
        bed.run(120.0)
        assert results and results[0].ok

    def test_new_flows_follow_new_policy(self):
        bed = make_bed()
        from repro.core.policy import weighted_split

        controller = bed.yoda.controller
        new = controller.policies[bed.vip].updated(
            rules=[weighted_split("only-1", "*", {"srv-1": 1.0})]
        )
        controller.update_policy(new)
        bed.run(0.5)
        before = bed.backends["srv-1"].requests_served
        fetch(bed, deadline=5.0)
        fetch(bed, path="/obj/1.bin", deadline=5.0)
        assert bed.backends["srv-1"].requests_served == before + 2

    def test_backend_failure_detected_and_avoided(self):
        bed = make_bed()
        bed.backends["srv-0"].fail()
        bed.run(1.5)  # monitor detects within 600 ms
        for _ in range(8):
            result = fetch(bed, deadline=8.0)
            assert result.ok
            assert result.response.headers.get("X-Backend") != "srv-0"
