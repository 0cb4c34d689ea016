"""Unit tests for the packet model: sizes, accessors, rendering."""

import dataclasses
import pickle

import pytest

from repro.netsim import (
    ETH_TYPE_ARP,
    ETH_TYPE_IP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    EthernetFrame,
    HTTPRequest,
    HTTPResponse,
    IPv4Packet,
    TCPFlags,
    TCPSegment,
    UDPDatagram,
    ip,
    mac,
)
from repro.netsim.device import Device
from repro.netsim.host import NetworkStateError
from repro.netsim.link import Link
from repro.netsim.packet import (
    ARP_BODY_BYTES,
    ETH_HEADER_BYTES,
    IP_HEADER_BYTES,
    TCP_HEADER_BYTES,
    TCP_MSS,
    UDP_HEADER_BYTES,
    ArpOp,
    ArpPacket,
)
from repro.netsim.topology import Network


def tcp_frame(payload_bytes=100, flags=TCPFlags.ACK):
    seg = TCPSegment(src_port=1234, dst_port=80, seq=7, ack=9, flags=flags,
                     payload_bytes=payload_bytes)
    pkt = IPv4Packet(src=ip("10.0.0.1"), dst=ip("10.0.0.2"),
                     proto=IP_PROTO_TCP, payload=seg)
    return EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_IP,
                         payload=pkt)


class TestWireSizes:
    def test_tcp_frame_size_composition(self):
        frame = tcp_frame(payload_bytes=100)
        assert frame.wire_bytes == (ETH_HEADER_BYTES + IP_HEADER_BYTES
                                    + TCP_HEADER_BYTES + 100)

    def test_udp_frame_size(self):
        dg = UDPDatagram(src_port=1, dst_port=53, payload_bytes=48)
        pkt = IPv4Packet(src=ip("1.1.1.1"), dst=ip("2.2.2.2"),
                         proto=IP_PROTO_UDP, payload=dg)
        frame = EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_IP,
                              payload=pkt)
        assert frame.wire_bytes == (ETH_HEADER_BYTES + IP_HEADER_BYTES
                                    + UDP_HEADER_BYTES + 48)

    def test_arp_frame_size(self):
        arp = ArpPacket(op=ArpOp.REQUEST, sender_mac=mac(1),
                        sender_ip=ip("1.1.1.1"), target_mac=mac(0),
                        target_ip=ip("1.1.1.2"))
        frame = EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_ARP,
                              payload=arp)
        assert frame.wire_bytes == ETH_HEADER_BYTES + ARP_BODY_BYTES

    def test_http_wire_bytes(self):
        request = HTTPRequest(method="POST", body_bytes=1000, headers_bytes=120)
        assert request.wire_bytes == 1120
        response = HTTPResponse(status=200, body_bytes=500, headers_bytes=160)
        assert response.wire_bytes == 660
        assert response.ok
        assert not HTTPResponse(status=503).ok

    def test_mss_value(self):
        assert TCP_MSS == 1460


def udp_frame(payload_bytes=48):
    dg = UDPDatagram(src_port=1, dst_port=53, payload_bytes=payload_bytes)
    pkt = IPv4Packet(src=ip("1.1.1.1"), dst=ip("2.2.2.2"),
                     proto=IP_PROTO_UDP, payload=dg)
    return EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_IP,
                         payload=pkt, frame_id=3)


def arp_frame():
    arp = ArpPacket(op=ArpOp.REQUEST, sender_mac=mac(1),
                    sender_ip=ip("1.1.1.1"), target_mac=mac(0),
                    target_ip=ip("1.1.1.2"))
    return EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_ARP,
                         payload=arp, frame_id=4)


def layered_size(frame):
    """The frame's size summed over its layers, as the links charge it."""
    payload = frame.payload
    if isinstance(payload, ArpPacket):
        return ETH_HEADER_BYTES + ARP_BODY_BYTES
    l4 = payload.payload
    header = TCP_HEADER_BYTES if isinstance(l4, TCPSegment) else UDP_HEADER_BYTES
    return ETH_HEADER_BYTES + IP_HEADER_BYTES + header + l4.payload_bytes


@pytest.mark.parametrize("build", [lambda: tcp_frame(payload_bytes=1460),
                                   udp_frame, arp_frame],
                         ids=["tcp", "udp", "arp"])
class TestCarriedWireSize:
    """A frame sums its layers once, at construction, and every copy carries
    the same size."""

    def copies(self, frame):
        yield "constructor", frame
        yield "rewrite", frame.rewrite(src=mac(7), dst=mac(8))
        yield "rewrite_headers", frame.rewrite_headers(
            eth_dst=mac(9), ipv4_src=ip("10.9.9.9"), ipv4_dst=ip("10.8.8.8"),
            l4_src=1111, l4_dst=2222)
        yield "replace", dataclasses.replace(frame, frame_id=99)
        yield "pickle", pickle.loads(pickle.dumps(frame))

    def test_size_matches_layered_sum(self, build):
        frame = build()
        for how, copy in self.copies(frame):
            assert copy.wire_bytes == layered_size(copy) == layered_size(frame), how

    def test_equality_and_hash_ignore_the_carried_size(self, build):
        frame = build()
        twin = pickle.loads(pickle.dumps(frame))
        assert twin == frame and hash(twin) == hash(frame)
        assert hash(frame) == hash((frame.src, frame.dst, frame.ethertype, frame.payload))
        # compare=False: a different carried size does not make frames unequal
        object.__setattr__(twin, "_wire_bytes", frame.wire_bytes + 1)
        assert twin == frame and hash(twin) == hash(frame)
        assert "_wire_bytes" not in repr(frame)


class TestAccessors:
    def test_layer_accessors_tcp(self):
        frame = tcp_frame()
        assert frame.ipv4 is not None
        assert frame.tcp is not None
        assert frame.udp is None
        assert frame.arp is None
        assert frame.tcp.src_port == 1234

    def test_tcp_flag_helpers(self):
        seg = TCPSegment(src_port=1, dst_port=2,
                         flags=TCPFlags.SYN | TCPFlags.ACK)
        assert seg.has(TCPFlags.SYN)
        assert seg.has(TCPFlags.ACK)
        assert not seg.has(TCPFlags.FIN)

    def test_has_matches_enum_and_for_every_flag_value(self):
        singles = [TCPFlags.FIN, TCPFlags.SYN, TCPFlags.RST, TCPFlags.PSH, TCPFlags.ACK]
        for value in range(32):
            flags = TCPFlags(sum(f for i, f in enumerate(singles) if value >> i & 1))
            seg = TCPSegment(src_port=1, dst_port=2, flags=flags)
            for flag in singles:
                assert seg.has(flag) is bool(flags & flag), (flags, flag)

    def test_ttl_decrement_returns_copy(self):
        frame = tcp_frame()
        packet = frame.ipv4
        decremented = packet.decrement_ttl()
        assert decremented.ttl == packet.ttl - 1
        assert packet.ttl == 64  # original untouched

    def test_frames_are_value_like(self):
        a = tcp_frame()
        b = dataclasses.replace(a)
        assert a == b  # frame_id excluded from comparison


class TestDescribe:
    def test_tcp_describe(self):
        text = tcp_frame(flags=TCPFlags.SYN).describe()
        assert "TCP 10.0.0.1:1234 > 10.0.0.2:80" in text
        assert "SYN" in text

    def test_udp_describe(self):
        dg = UDPDatagram(src_port=5, dst_port=53, payload_bytes=10)
        pkt = IPv4Packet(src=ip("1.1.1.1"), dst=ip("2.2.2.2"),
                         proto=IP_PROTO_UDP, payload=dg)
        frame = EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_IP,
                              payload=pkt)
        assert "UDP 1.1.1.1:5 > 2.2.2.2:53" in frame.describe()

    def test_arp_describe(self):
        arp = ArpPacket(op=ArpOp.REQUEST, sender_mac=mac(1),
                        sender_ip=ip("1.1.1.1"), target_mac=mac(0),
                        target_ip=ip("1.1.1.9"))
        frame = EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_ARP,
                              payload=arp)
        assert "who-has 1.1.1.9" in frame.describe()
        reply = ArpPacket(op=ArpOp.REPLY, sender_mac=mac(1),
                          sender_ip=ip("1.1.1.9"), target_mac=mac(2),
                          target_ip=ip("1.1.1.1"))
        frame = EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_ARP,
                              payload=reply)
        assert "is-at" in frame.describe()


class _Sink(Device):
    def on_frame(self, port_no, frame):
        pass


class TestUplinkPort:
    def test_unwired_host_raises(self):
        net = Network(seed=0)
        host = net.add_host("h")
        with pytest.raises(NetworkStateError):
            host.uplink_port
        host.arp_cache[ip("10.0.0.99")] = mac(5)
        with pytest.raises(NetworkStateError):
            host.send_udp(ip("10.0.0.99"), 53, None)

    def test_cached_port_is_the_lowest_wired_port(self):
        net = Network(seed=0)
        host = net.add_host("h")
        sink = _Sink(net.sim, "sw")
        Link(net.sim, host, 3, sink, 0)
        assert host.uplink_port == 3
        Link(net.sim, host, 1, sink, 1)
        assert host.uplink_port == 1 == host.port_numbers[0]

    def test_frames_leave_through_the_cached_port(self):
        net = Network(seed=0)
        host = net.add_host("h")
        sink = _Sink(net.sim, "sw")
        seen = []
        sink.on_frame = lambda port_no, frame: seen.append((port_no, frame.frame_id))
        Link(net.sim, host, 2, sink, 7)
        host.arp_cache[ip("10.0.0.99")] = mac(5)
        host.send_udp(ip("10.0.0.99"), 53, None, size_bytes=10)
        net.sim.run()
        assert [port for port, _ in seen] == [7]
        assert host.tx_frames == 1
