"""Property tests for the allocation-lean packet model.

Three families, all over randomized inputs:

* address interning — equality and identity coincide, across both
  constructor forms and a pickle round-trip (pool workers exchange
  addresses, so ``__reduce__`` must land on the singleton);
* ``rewrite()`` — structurally identical to rebuilding the object with
  ``dataclasses.replace``, while *sharing* every untouched sub-object;
* the fused ``rewrite_headers`` used by the switch action pipeline —
  equivalent to its layer-by-layer reference;
* compiled action programs — the same ``(frame, port)`` pairs as running
  the action list one action at a time.
"""

import dataclasses
import pickle

from hypothesis import given, strategies as st

from repro.netsim import ETH_TYPE_IP, EthernetFrame, IPv4, IPv4Packet, MAC, TCPSegment, ip, mac
from repro.netsim.packet import (
    ETH_TYPE_ARP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    ArpOp,
    ArpPacket,
    TCPFlags,
    UDPDatagram,
)
from repro.openflow.actions import (
    OutputAction,
    SetFieldAction,
    _apply_fields,
    apply_actions,
    apply_actions_multi,
    compile_actions,
)

ip_ints = st.integers(min_value=0, max_value=2**32 - 1)
mac_ints = st.integers(min_value=0, max_value=2**48 - 1)
ports = st.integers(min_value=1, max_value=65535)


def frames():
    return st.builds(
        lambda esrc, edst, isrc, idst, sport, dport, seq, ack, nbytes, last, fid:
        EthernetFrame(
            src=mac(esrc), dst=mac(edst), ethertype=ETH_TYPE_IP,
            payload=IPv4Packet(
                src=ip(isrc), dst=ip(idst), proto=IP_PROTO_TCP,
                payload=TCPSegment(src_port=sport, dst_port=dport, seq=seq,
                                   ack=ack, flags=TCPFlags.ACK,
                                   payload_bytes=nbytes, last_fragment=last)),
            frame_id=fid),
        mac_ints, mac_ints, ip_ints, ip_ints, ports, ports,
        st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=100000), st.booleans(),
        st.integers(min_value=0, max_value=2**31))


class TestInterning:
    @given(ip_ints)
    def test_ipv4_identity_is_equality(self, value):
        assert ip(value) is ip(value)
        assert IPv4(value) is ip(value)
        assert ip(value) is ip(str(ip(value)))  # string form re-interns

    @given(mac_ints)
    def test_mac_identity_is_equality(self, value):
        assert mac(value) is mac(value)
        assert MAC(value) is mac(value)
        assert mac(value) is mac(str(mac(value)))

    @given(ip_ints, ip_ints)
    def test_distinct_values_distinct_objects(self, a, b):
        assert (ip(a) is ip(b)) == (a == b)

    @given(ip_ints, mac_ints)
    def test_pickle_reinterns(self, ipv, macv):
        a, m = ip(ipv), mac(macv)
        assert pickle.loads(pickle.dumps(a)) is a
        assert pickle.loads(pickle.dumps(m)) is m
        # and through a container, as pool results actually travel
        back_ip, back_mac = pickle.loads(pickle.dumps((a, m)))
        assert back_ip is a and back_mac is m


class TestRewriteRoundTrip:
    @given(frames(), st.integers(min_value=0, max_value=63))
    def test_rewrite_equals_replace(self, frame, fieldmask):
        """Any subset of the six rewritable header fields: ``rewrite``
        chains produce exactly what ``dataclasses.replace`` chains do."""
        seg, pkt = frame.payload.payload, frame.payload
        new_esrc = mac(0x02AA00000001) if fieldmask & 1 else None
        new_edst = mac(0x02AA00000002) if fieldmask & 2 else None
        new_isrc = ip("192.0.2.1") if fieldmask & 4 else None
        new_idst = ip("192.0.2.2") if fieldmask & 8 else None
        new_sport = 11111 if fieldmask & 16 else None
        new_dport = 22222 if fieldmask & 32 else None

        got = frame.rewrite(
            src=new_esrc, dst=new_edst,
            payload=pkt.rewrite(
                src=new_isrc, dst=new_idst,
                payload=seg.rewrite(src_port=new_sport, dst_port=new_dport)))

        want_seg = dataclasses.replace(
            seg, **{k: v for k, v in
                    (("src_port", new_sport), ("dst_port", new_dport))
                    if v is not None})
        want_pkt = dataclasses.replace(
            pkt, payload=want_seg,
            **{k: v for k, v in (("src", new_isrc), ("dst", new_idst))
               if v is not None})
        want = dataclasses.replace(
            frame, payload=want_pkt,
            **{k: v for k, v in (("src", new_esrc), ("dst", new_edst))
               if v is not None})
        assert got == want
        assert got.frame_id == frame.frame_id  # compare=False, so check it

    @given(frames())
    def test_rewrite_shares_untouched_layers(self, frame):
        """A TTL-only rewrite must not copy the L4 payload (that sharing is
        the allocation win the bench measures)."""
        out = frame.rewrite(payload=frame.payload.rewrite(ttl=9))
        assert out.payload.payload is frame.payload.payload
        assert out.src is frame.src and out.dst is frame.dst

    @given(frames(), st.integers(min_value=0, max_value=63))
    def test_fused_equals_layerwise(self, frame, fieldmask):
        kwargs = {}
        if fieldmask & 1:
            kwargs["eth_src"] = mac(0x02AA00000011)
        if fieldmask & 2:
            kwargs["eth_dst"] = mac(0x02AA00000012)
        if fieldmask & 4:
            kwargs["ipv4_src"] = ip("198.51.100.9")
        if fieldmask & 8:
            kwargs["ipv4_dst"] = ip("198.51.100.10")
        if fieldmask & 16:
            kwargs["l4_src"] = 3333
        if fieldmask & 32:
            kwargs["l4_dst"] = 4444

        fused = frame.rewrite_headers(**kwargs)

        want = frame
        seg = want.payload.payload.rewrite(src_port=kwargs.get("l4_src"),
                                           dst_port=kwargs.get("l4_dst"))
        pkt = want.payload.rewrite(src=kwargs.get("ipv4_src"),
                                   dst=kwargs.get("ipv4_dst"), payload=seg)
        want = want.rewrite(src=kwargs.get("eth_src"),
                            dst=kwargs.get("eth_dst"), payload=pkt)
        assert fused == want
        if not kwargs:
            assert fused is frame  # no-op returns self, zero allocations


# ------------------------------------------------------- compiled programs

FIELD_VALUES = {
    "eth_src": st.sampled_from([0x02AA00000021, 0x02AA00000022]),
    "eth_dst": st.sampled_from([0x02AA00000031, 0x02AA00000032]),
    "ipv4_src": st.sampled_from(["203.0.113.1", "203.0.113.2"]),
    "ipv4_dst": st.sampled_from(["203.0.113.11", "203.0.113.12"]),
    "tcp_src": ports, "tcp_dst": ports, "udp_src": ports, "udp_dst": ports,
}

set_fields = st.sampled_from(sorted(FIELD_VALUES)).flatmap(
    lambda name: FIELD_VALUES[name].map(lambda value: SetFieldAction(name, value)))
outputs = st.integers(min_value=1, max_value=6).map(OutputAction)
#: interleaved outputs, runs of set-fields (the same field written twice
#: included) and lists ending in set-fields after the last output
action_lists = st.lists(st.one_of(set_fields, outputs), max_size=10)


def udp_frames():
    return st.builds(
        lambda isrc, idst, sport, dport, nbytes: EthernetFrame(
            src=mac(1), dst=mac(2), ethertype=ETH_TYPE_IP,
            payload=IPv4Packet(src=ip(isrc), dst=ip(idst), proto=IP_PROTO_UDP,
                               payload=UDPDatagram(src_port=sport, dst_port=dport,
                                                   payload_bytes=nbytes)),
            frame_id=5),
        ip_ints, ip_ints, ports, ports, st.integers(min_value=0, max_value=1472))


def arp_frames():
    return st.builds(
        lambda sender, target: EthernetFrame(
            src=mac(3), dst=mac(0xFFFFFFFFFFFF), ethertype=ETH_TYPE_ARP,
            payload=ArpPacket(op=ArpOp.REQUEST, sender_mac=mac(3), sender_ip=ip(sender),
                              target_mac=mac(0), target_ip=ip(target)),
            frame_id=6),
        ip_ints, ip_ints)


def one_at_a_time(frame, actions):
    """Reference semantics: apply every set-field as it comes, emit the
    current frame at every output."""
    emitted = []
    for action in actions:
        if isinstance(action, SetFieldAction):
            frame = _apply_fields(frame, {action.field: action.value})
        else:
            emitted.append((frame, action.port))
    return emitted, frame


def same_pairs(got, want):
    assert [port for _, port in got] == [port for _, port in want]
    for (got_frame, _), (want_frame, _) in zip(got, want, strict=True):
        assert got_frame == want_frame
        assert got_frame.frame_id == want_frame.frame_id
        assert got_frame.wire_bytes == want_frame.wire_bytes


class TestCompiledPrograms:
    @given(st.one_of(frames(), udp_frames(), arp_frames()), action_lists)
    def test_program_matches_action_list(self, frame, actions):
        program = compile_actions(actions)
        want, fully_rewritten = one_at_a_time(frame, actions)
        same_pairs(apply_actions_multi(frame, program), want)
        same_pairs(apply_actions_multi(frame, actions), want)
        # the program is reusable: a second run gives the same pairs
        same_pairs(apply_actions_multi(frame, program), want)

        last, ports = apply_actions(frame, actions)
        assert ports == [port for _, port in want]
        if want:
            assert last == want[-1][0]  # trailing set-fields are discarded
        else:
            assert last == fully_rewritten
