"""latem: single-host network-emulation planning and control.

Turns a node inventory and an internet delay matrix into a complete
deployment: kernel preflight, link-layer plans, ARP elimination, delay-class
firewall and queueing configuration, time inflation with a TCP initial-RTO
override, overlay topologies, and phased batched startup orchestration.

The package root exports only `__version__`; import from the modules
(`latem.delay_model`, `latem.tc_planner`, ...), so a process loads only
what it uses.
"""

__version__ = "0.1.0"
