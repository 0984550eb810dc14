"""AutoServe: signed wire protocol, reservation scheduling and a
deterministic fleet simulator for an autonomous UAV service network.
"""

from .ap_node import AP_TRANSITIONS, ApNode
from .lp_node import LP_TRANSITIONS, LpNode, ProtocolStateError
from .reservation import (
    DuplicateReservation,
    EmptyQueue,
    Reservation,
    ServiceQueue,
    priority_from_battery,
)
from .routing import reachable_lps
from .sim import (
    InvalidConfig,
    SimConfig,
    SimReport,
    run_sim,
    sample_consumption,
    sample_displacement,
    sweep,
    uav_rng,
)
from .transport import InMemoryBus, Outbound
from .wire import (
    ApReservationDecision,
    BadMagic,
    ChecksumMismatch,
    ExtendedHeartbeat,
    FrameHeader,
    Keystore,
    LpReservationConfirmation,
    Message,
    NodeState,
    PayloadTooLarge,
    ReservationAction,
    ServiceReservationRequest,
    Signature,
    SignatureInvalid,
    SignatureMissing,
    SigningContext,
    StaleTimestamp,
    SystemStateUpdate,
    TruncatedFrame,
    UnknownMsgId,
    compute_checksum,
    crc16_x25,
    decode_frame,
    dump_frame,
    encode_frame,
    verify_frame,
)

__version__ = "0.1.0"
