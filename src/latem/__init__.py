"""latem: single-host network-emulation planning and control.

Turns a node inventory and an internet delay matrix into a complete
deployment: kernel preflight, link-layer plans, ARP elimination, delay-class
firewall and queueing configuration, time inflation with a TCP initial-RTO
override, overlay topologies, and phased batched startup orchestration.
"""

from .delay_model import (
    DelayClass,
    DelayClassMap,
    DelayMatrix,
    QuantizationPolicy,
    build_classes,
    inflate,
    load_matrix,
    quantize,
    subsample,
)
from .link_layer import check_bridge_capacity, emit_fdb_script, mac_for_ip
from .nft_planner import emit_nft_script
from .script import CommandScript
from .tc_planner import compute_bands, emit_tc_script, leaf_position, verify_plan

__version__ = "0.1.0"

__all__ = [
    "CommandScript",
    "DelayClass",
    "DelayClassMap",
    "DelayMatrix",
    "QuantizationPolicy",
    "build_classes",
    "check_bridge_capacity",
    "compute_bands",
    "emit_fdb_script",
    "emit_nft_script",
    "emit_tc_script",
    "inflate",
    "leaf_position",
    "load_matrix",
    "mac_for_ip",
    "quantize",
    "subsample",
    "verify_plan",
    "__version__",
]
