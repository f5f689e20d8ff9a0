"""Endpoints, four-tuples and address allocation."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AddressError
from repro.net.addresses import Endpoint, EphemeralPorts, FourTuple, IpAllocator, validate_ip


class TestValidateIp:
    def test_accepts_valid(self):
        assert validate_ip("10.0.0.1") == "10.0.0.1"
        assert validate_ip("255.255.255.255")

    @pytest.mark.parametrize("bad", [
        "256.0.0.1", "1.2.3", "a.b.c.d", "", "1.2.3.4.5",
        "10.0.0.1\n",                   # "$" alone matches before a newline
        "\u0661\u0660.0.0.1",           # Arabic-Indic digits match "\d"
        " 10.0.0.1", "10.0.0.1 ",
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(AddressError):
            validate_ip(bad)


class TestEndpoint:
    def test_str_roundtrip(self):
        ep = Endpoint("10.0.0.1", 80)
        assert Endpoint.parse(str(ep)) == ep

    def test_parse_rejects_garbage(self):
        with pytest.raises(AddressError):
            Endpoint.parse("10.0.0.1")
        with pytest.raises(AddressError):
            Endpoint.parse("10.0.0.1:notaport")

    def test_invalid_port(self):
        with pytest.raises(AddressError):
            Endpoint("10.0.0.1", 70000)

    @pytest.mark.parametrize("port", [True, False, 80.0, "80"])
    def test_port_must_be_int(self, port):
        # Endpoint("10.0.0.1", True) == Endpoint("10.0.0.1", 1) but renders
        # as "10.0.0.1:True", so string flow keys would disagree
        with pytest.raises(AddressError):
            Endpoint("10.0.0.1", port)

    def test_hashable_and_ordered(self):
        a = Endpoint("10.0.0.1", 80)
        b = Endpoint("10.0.0.1", 81)
        assert a < b
        assert len({a, b, Endpoint("10.0.0.1", 80)}) == 2

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 65535))
    def test_any_valid_endpoint_roundtrips(self, c, d, port):
        ep = Endpoint(f"10.0.{c}.{d}", port)
        assert Endpoint.parse(str(ep)) == ep


class TestFourTuple:
    def test_reversed(self):
        ft = FourTuple(Endpoint("1.1.1.1", 1), Endpoint("2.2.2.2", 2))
        assert ft.reversed().src == ft.dst
        assert ft.reversed().reversed() == ft

    def test_key_is_stable(self):
        ft = FourTuple(Endpoint("1.1.1.1", 1), Endpoint("2.2.2.2", 2))
        assert ft.key() == "1.1.1.1:1-2.2.2.2:2"


class TestIpAllocator:
    def test_sequential_unique(self):
        alloc = IpAllocator("10.5")
        ips = [alloc.next() for _ in range(300)]
        assert len(set(ips)) == 300
        assert ips[0] == "10.5.0.1"

    def test_all_valid(self):
        alloc = IpAllocator("10.5")
        for ip in alloc.take(600):
            validate_ip(ip)

    def test_bad_prefix(self):
        with pytest.raises(AddressError):
            IpAllocator("300.1")
        with pytest.raises(AddressError):
            IpAllocator("10.0.0")


class TestEphemeralPorts:
    def test_in_range_and_wrapping(self):
        ports = EphemeralPorts()
        first = ports.next()
        assert first == EphemeralPorts.LOW
        total = EphemeralPorts.HIGH - EphemeralPorts.LOW + 1
        for _ in range(total - 1):
            p = ports.next()
            assert EphemeralPorts.LOW <= p <= EphemeralPorts.HIGH
        assert ports.next() == EphemeralPorts.LOW  # wrapped
