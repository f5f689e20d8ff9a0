"""SSL termination (paper Section 5.2): handshake, decryption-based
selection, and failure during certificate transfer."""

import pytest

from repro.errors import HttpError
from repro.experiments.harness import Testbed, TestbedConfig
from repro.http import tls
from repro.http.client import HttpsFetcher
from repro.http.message import HttpRequest
from repro.net.addresses import Endpoint

CERT = tls.Certificate("secure.example", size=3_000)


def make_bed(**overrides):
    defaults = dict(
        seed=55, lb="yoda", num_lb_instances=3, num_store_servers=2,
        num_backends=2, corpus="flat", flat_object_count=2,
        flat_object_bytes=40_000, client_jitter=0.0, tls_certificate=CERT,
    )
    defaults.update(overrides)
    return Testbed(TestbedConfig(**defaults))


def https_fetch(bed, path="/obj/0.bin", deadline=60.0, on_start=None):
    results = []
    fetcher = HttpsFetcher(
        bed.client_stacks[0], bed.loop, bed.target(),
        HttpRequest("GET", path, host="secure.example"),
        results.append, sni="secure.example",
    )
    fetcher.start()
    if on_start:
        on_start(fetcher)
    bed.run(deadline)
    assert results, "https fetch never concluded"
    return results[0]


class TestTlsCodec:
    def test_record_roundtrip(self):
        codec = tls.TlsCodec()
        wire = tls.client_hello("h") + tls.app_data(b"payload")
        records = codec.feed(wire)
        assert [r[0] for r in records] == [tls.CLIENT_HELLO, tls.APP_DATA]
        assert records[1][1] == b"payload"

    def test_byte_by_byte(self):
        codec = tls.TlsCodec()
        wire = tls.certificate_flight(CERT)
        records = []
        for i in range(len(wire)):
            records.extend(codec.feed(wire[i:i + 1]))
        assert len(records) == 1
        assert records[0][1] == CERT.pem

    def test_bad_record_type_raises(self):
        with pytest.raises(HttpError):
            tls.TlsCodec().feed(b"\xff\x00\x00\x00\x01\x00z")

    def test_certificate_deterministic(self):
        assert tls.certificate_flight(CERT) == tls.certificate_flight(
            tls.Certificate("secure.example", size=3_000)
        )
        other = tls.Certificate("other.example", size=3_000)
        assert tls.certificate_flight(CERT) != tls.certificate_flight(other)

    def test_certificate_size(self):
        assert abs(len(CERT.pem) - 3_000) < 50


class TestHttpsThroughYoda:
    def test_basic_https_fetch(self):
        bed = make_bed()
        result = https_fetch(bed)
        assert result.ok
        assert len(result.response.body) == 40_000

    def test_rule_matching_on_decrypted_header(self):
        """The instance must see the plaintext header to select a backend
        (the whole point of SSL termination)."""
        from repro.core.policy import weighted_split

        bed = make_bed()
        controller = bed.yoda.controller
        new = controller.policies[bed.vip].updated(rules=[
            weighted_split("zero", "*obj/0.bin", {"srv-0": 1.0}, priority=2),
            weighted_split("rest", "*", {"srv-1": 1.0}, priority=1),
        ])
        controller.update_policy(new)
        bed.run(0.5)
        r0 = https_fetch(bed, "/obj/0.bin")
        r1 = https_fetch(bed, "/obj/1.bin")
        assert r0.response.headers.get("X-Backend") == "srv-0"
        assert r1.response.headers.get("X-Backend") == "srv-1"

    def test_client_receives_certificate_exactly_once(self):
        bed = make_bed(trace_packets=True)
        result = https_fetch(bed)
        assert result.ok
        # backend's duplicate handshake flight was suppressed: the client
        # got cert-length + response bytes, not 2x cert
        rx_bytes = sum(
            r.payload_len for r in bed.trace.filter(point="client-0",
                                                    direction="rx")
        )
        flight = len(tls.certificate_flight(CERT))
        response_records = len(tls.app_data(b"")) + 40_000 + 200  # + headers
        assert rx_bytes < flight * 2 + response_records


class TestTlsFailover:
    def _fail_mid_cert(self, bed):
        state = {}

        def poll():
            for inst in bed.yoda.instances:
                for flow in inst.flows.values():
                    if (flow.tls_hello_done and flow.resp_out
                            and flow.resp_acked < len(flow.resp_out)):
                        state["t"] = bed.loop.now()
                        inst.fail()
                        return
            if bed.loop.now() < 1.4:
                bed.loop.call_later(0.001, poll)

        bed.loop.call_at(1.05, poll)
        return state

    def test_failure_during_certificate_transfer(self):
        """Paper: 'another YODA instance resends the entire certificate
        (TCP buffer at the client will remove duplicate packets)'."""
        bed = make_bed()
        state = self._fail_mid_cert(bed)
        result = https_fetch(bed)
        assert state, "never caught the mid-certificate window"
        assert result.ok
        assert result.retries_used == 0
        recoveries = sum(
            i.metrics.counters["flows_recovered"].value
            for i in bed.yoda.instances
            if "flows_recovered" in i.metrics.counters
        )
        assert recoveries >= 1

    def test_failure_mid_tunnel_on_tls_flow(self):
        bed = make_bed(flat_object_bytes=1_200_000)
        state = {}

        def poll():
            for inst in bed.yoda.instances:
                if any(f.phase.value == "tunnel" for f in inst.flows.values()):
                    state["t"] = bed.loop.now()
                    inst.fail()
                    return
            if bed.loop.now() < 2.0:
                bed.loop.call_later(0.002, poll)

        bed.loop.call_at(1.12, poll)
        result = https_fetch(bed, deadline=120.0)
        assert state, "never caught the tunnel window"
        assert result.ok
        assert len(result.response.body) == 1_200_000

    def test_client_prefix_persisted_before_certificate(self):
        """store-before-ACK extends to TLS: the hello bytes are persisted
        before the first certificate byte (which ACKs them) leaves."""
        bed = make_bed(trace_packets=True)
        result = https_fetch(bed)
        assert result.ok
        cert_first = next(
            r for r in bed.trace.records
            if r.src == Endpoint("100.0.0.1", 80) and r.payload_len > 0
        )
        store_writes = [
            r for r in bed.trace.records
            if r.dst.port == 11211 and r.time <= cert_first.time
        ]
        # SYN storage-a plus the hello-prefix update
        assert len(store_writes) >= 2
