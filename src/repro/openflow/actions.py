"""OpenFlow actions: output and set-field (the rewrite primitive).

``apply_actions`` executes an action list against a frame, returning the
(possibly rewritten) frame and the list of output ports — the switch then
performs the actual transmissions. Set-field produces copies; frames are
never mutated in place.

Contiguous set-field actions are **fused**: pending field writes accumulate
in a small dict and materialize as one multi-layer
:meth:`~repro.netsim.packet.EthernetFrame.rewrite_headers` copy at each
output boundary (apply-actions semantics: an output emits the frame as
rewritten *so far*). A 4-field NAT rewrite then allocates one object per
mutated layer instead of one full ``dataclasses.replace`` chain per field.
The per-layer reference is ``test_fused_equals_layerwise`` in
``tests/property/test_interning_and_rewrite.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.netsim.addresses import MAC, IPv4
from repro.netsim.packet import EthernetFrame, TCPSegment, UDPDatagram
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


def _rewrite(frame: EthernetFrame, field: str, value: Any) -> EthernetFrame:
    """Single-field rewrite through the lean per-layer copy helpers."""
    return _apply_fields(frame, {field: value})


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
    packet = frame.ipv4
    if packet is not None:
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


def apply_actions(
    frame: EthernetFrame, actions: Sequence[Action]
) -> Tuple[EthernetFrame, List[int]]:
    """Run an action list; return the final frame and output port list.

    OpenFlow apply-actions semantics: actions execute in order, so a
    set-field *after* an output does not affect that output. We return the
    frame state at each output; for simplicity all outputs receive the frame
    as rewritten up to that output action — achieved by snapshotting.
    """
    outputs: List[Tuple[EthernetFrame, int]] = []
    current = frame
    pending: Dict[str, Any] = {}
    for action in actions:
        if isinstance(action, SetFieldAction):
            pending[action.field] = action.value
        elif isinstance(action, OutputAction):
            if pending:
                current = _apply_fields(current, pending)
                pending = {}
            outputs.append((current, action.port))
        else:  # pragma: no cover - future action types
            raise TypeError(f"unsupported action {action!r}")
    if not outputs:
        # No output: return the frame with every rewrite applied (matching
        # the sequential reference semantics).
        if pending:
            current = _apply_fields(current, pending)
        return current, []
    # The common case is a single output; return that frame and port list.
    # Multiple outputs with interleaved rewrites are handled by the switch
    # calling apply_actions_multi instead. Trailing set-fields after the
    # last output never reached an output and are discarded, exactly like
    # the reference implementation's return value.
    return outputs[-1][0], [port for _, port in outputs]


def apply_actions_multi(
    frame: EthernetFrame, actions: Sequence[Action]
) -> List[Tuple[EthernetFrame, int]]:
    """Like :func:`apply_actions` but yields the exact (frame, port) pairs,
    preserving per-output rewrite state."""
    outputs: List[Tuple[EthernetFrame, int]] = []
    current = frame
    pending: Dict[str, Any] = {}
    for action in actions:
        if isinstance(action, SetFieldAction):
            pending[action.field] = action.value
        elif isinstance(action, OutputAction):
            if pending:
                current = _apply_fields(current, pending)
                pending = {}
            outputs.append((current, action.port))
        else:  # pragma: no cover
            raise TypeError(f"unsupported action {action!r}")
    return outputs
