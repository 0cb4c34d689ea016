"""OpenFlow actions: output and set-field (the rewrite primitive).

``apply_actions_multi`` executes actions against a frame, returning the
(possibly rewritten) frame each output emits with its port — the switch then
performs the actual transmissions. Set-field produces copies; frames are
never mutated in place.

Contiguous set-field actions are **fused**: :func:`compile_actions` folds
the field writes before each output into one dict, once per action list,
and execution materializes each as one multi-layer
:meth:`~repro.netsim.packet.EthernetFrame.rewrite_headers` copy at its
output (apply-actions semantics: an output emits the frame as rewritten
*so far*). A flow entry compiles its list when it is built, so per-frame
execution only walks the compiled steps. A 4-field NAT rewrite allocates
one object per mutated layer instead of one full ``dataclasses.replace``
chain per field.
The per-layer reference is ``test_fused_equals_layerwise`` in
``tests/property/test_interning_and_rewrite.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.netsim.addresses import MAC, IPv4
from repro.netsim.packet import EthernetFrame, IPv4Packet, TCPSegment, UDPDatagram
from repro.openflow.constants import REWRITABLE_FIELDS


class Action:
    """Marker base class."""

    __slots__ = ()


class OutputAction(Action):
    """Emit the frame (as rewritten so far) out of ``port`` — may be a real
    port number or one of the reserved OFPP_* ports."""

    __slots__ = ("port",)

    def __init__(self, port: int) -> None:
        self.port = port

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OutputAction) and self.port == other.port

    def __hash__(self) -> int:
        return hash(("out", self.port))

    def __repr__(self) -> str:
        return f"Output({self.port:#x})" if self.port > 0xFF else f"Output({self.port})"


class SetFieldAction(Action):
    """Rewrite one header field (``eth_src/dst``, ``ipv4_src/dst``,
    ``tcp_src/dst``, ``udp_src/dst``)."""

    __slots__ = ("field", "value")

    def __init__(self, field: str, value: Any) -> None:
        if field not in REWRITABLE_FIELDS:
            raise ValueError(f"field {field!r} is not rewritable")
        if field.startswith("ipv4") and not isinstance(value, IPv4):
            value = IPv4(value)
        if field.startswith("eth") and not isinstance(value, MAC):
            value = MAC(value)
        if field.startswith(("tcp", "udp")):
            value = int(value)
        self.field = field
        self.value = value

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SetFieldAction)
                and self.field == other.field and self.value == other.value)

    def __hash__(self) -> int:
        return hash(("set", self.field, self.value))

    def __repr__(self) -> str:
        return f"SetField({self.field}={self.value})"


#: one compiled step: the set-fields pending at an output (None when there
#: are none) and the output's port
Step = Tuple[Optional[Dict[str, Any]], int]


def _apply_fields(frame: EthernetFrame, pending: Dict[str, Any]) -> EthernetFrame:
    """Materialize a batch of pending set-field writes as one fused rewrite.

    Per-field OpenFlow prerequisite semantics: IPv4/L4 fields are dropped
    individually when their layer is absent (``tcp_dst`` on a UDP packet is a
    no-op while ``eth_dst`` in the same batch still applies).
    """
    eth_src = pending.get("eth_src")
    eth_dst = pending.get("eth_dst")
    ipv4_src: Optional[IPv4] = None
    ipv4_dst: Optional[IPv4] = None
    l4_src: Optional[int] = None
    l4_dst: Optional[int] = None
    packet = frame.payload
    if isinstance(packet, IPv4Packet):
        ipv4_src = pending.get("ipv4_src")
        ipv4_dst = pending.get("ipv4_dst")
        l4 = packet.payload
        if isinstance(l4, TCPSegment):
            l4_src = pending.get("tcp_src")
            l4_dst = pending.get("tcp_dst")
        elif isinstance(l4, UDPDatagram):
            l4_src = pending.get("udp_src")
            l4_dst = pending.get("udp_dst")
    return frame.rewrite_headers(eth_src=eth_src, eth_dst=eth_dst,
                                 ipv4_src=ipv4_src, ipv4_dst=ipv4_dst,
                                 l4_src=l4_src, l4_dst=l4_dst)


class ActionProgram(tuple[Step, ...]):
    """An action list compiled once for per-frame execution.

    One ``(pending set-fields | None, port)`` step per output action, in
    order: the set-fields between the previous output and this one, fused
    into one dict (last write per field wins), or ``None`` when there are
    none. Set-fields after the last output reach no output and are
    dropped. The dicts are shared by every execution and never mutated.
    """

    __slots__ = ()


def compile_actions(actions: Sequence[Action]) -> ActionProgram:
    """Compile an action list into an :class:`ActionProgram`."""
    steps: List[Step] = []
    pending: Dict[str, Any] = {}
    for action in actions:
        if isinstance(action, SetFieldAction):
            pending[action.field] = action.value
        elif isinstance(action, OutputAction):
            steps.append((pending or None, action.port))
            pending = {}
        else:  # pragma: no cover - future action types
            raise TypeError(f"unsupported action {action!r}")
    return ActionProgram(steps)


def apply_actions_multi(
    frame: EthernetFrame, actions: Union[ActionProgram, Sequence[Action]]
) -> List[Tuple[EthernetFrame, int]]:
    """Run an action program (or an action list, compiled on the spot) and
    return the exact ``(frame, port)`` pair each output emits.

    OpenFlow apply-actions semantics: actions execute in order, so each
    output emits the frame as rewritten up to that output, and a set-field
    after an output does not affect it. This is the one copy of the
    execution loop: the switch runs each flow entry's precompiled program
    and each ``PacketOut``'s action list through it.
    """
    program = actions if isinstance(actions, ActionProgram) else compile_actions(actions)
    outputs: List[Tuple[EthernetFrame, int]] = []
    current = frame
    for pending, port in program:
        if pending is not None:
            current = _apply_fields(current, pending)
        outputs.append((current, port))
    return outputs


def apply_actions(
    frame: EthernetFrame, actions: Sequence[Action]
) -> Tuple[EthernetFrame, List[int]]:
    """Run an action list; return the last output's frame and every output
    port.

    Set-fields after the last output reach no output and are discarded. A
    list with no outputs returns the frame with every rewrite applied.
    """
    outputs = apply_actions_multi(frame, actions)
    if outputs:
        return outputs[-1][0], [port for _, port in outputs]
    pending = {action.field: action.value for action in actions
               if isinstance(action, SetFieldAction)}
    return (_apply_fields(frame, pending) if pending else frame), []
