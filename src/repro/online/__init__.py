"""Online re-optimisation: demand changes, failures, warm-start recovery.

Makes the paper's Section-3 motivation ("remaining capacity could be used to
better accommodate changing demands, or for faster recovery in the case of
node or link failures") measurable: replay event timelines against the
running algorithm and quantify recovery.
"""

from repro.core.delta import carry_routing
from repro.online.events import (
    CapacityChange,
    CommodityArrival,
    CommodityDeparture,
    DemandChange,
    LinkFailure,
    NetworkEvent,
    NodeFailure,
)
from repro.online.orchestrator import (
    OnlineOrchestrator,
    OnlineRecord,
    OnlineResult,
    RecoveryReport,
)
from repro.online.rebuild import (
    RebuildResult,
    apply_event,
    emergency_shed,
)

__all__ = [
    "CapacityChange",
    "CommodityArrival",
    "CommodityDeparture",
    "DemandChange",
    "LinkFailure",
    "NetworkEvent",
    "NodeFailure",
    "OnlineOrchestrator",
    "OnlineRecord",
    "OnlineResult",
    "RecoveryReport",
    "RebuildResult",
    "apply_event",
    "carry_routing",
    "emergency_shed",
]
