"""AutoServe: signed wire protocol, reservation scheduling and a
deterministic fleet simulator for an autonomous UAV service network.

The package root exports the library API; the protocol layers are
imported from their modules (`autoserve.wire`, `autoserve.ap_node`, ...).
"""

from .sim import InvalidConfig, SimConfig, SimReport, run_sim, sweep

__version__ = "0.1.0"
