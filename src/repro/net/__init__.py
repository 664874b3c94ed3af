"""Simulated network: links, a star topology and TCP stack cost profiles.

Three stack profiles reproduce the paper's progression: Linux kernel TCP
(software Ceph / DeLiBA-1), the HLS FPGA TCP of DeLiBA-2, and the
Verilog RTL TX/RX redesign of DeLiBA-K.
"""

from .link import DEFAULT_MTU, ETHERNET_FRAME_OVERHEAD, JUMBO_MTU, Link
from .message import Message
from .stack import HLS_TCP, KERNEL_TCP, RTL_TCP, StackProfile, stack_by_name
from .topology import DEFAULT_HOP_NS, DEFAULT_SWITCH_NS, PAPER_BANDWIDTH_BPS, Host, Network

__all__ = [
    "DEFAULT_HOP_NS",
    "DEFAULT_MTU",
    "DEFAULT_SWITCH_NS",
    "ETHERNET_FRAME_OVERHEAD",
    "HLS_TCP",
    "Host",
    "JUMBO_MTU",
    "KERNEL_TCP",
    "Link",
    "Message",
    "Network",
    "PAPER_BANDWIDTH_BPS",
    "RTL_TCP",
    "StackProfile",
    "stack_by_name",
]
