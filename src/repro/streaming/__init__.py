"""Online (real-time) resource prediction.

The paper's §V-C closes with applying the model "to the real-time
resource usage prediction". This subpackage provides that serving layer.
Its one core is :class:`FleetPredictor`: N streams sampled on one
clock, a matrix ring buffer over their monitoring records,
concept-drift detection (Page-Hinkley), and one-step predictions from a
shared forecaster refitted periodically or on drift, scored
prequentially (test-then-train). :class:`OnlinePredictor` is the same
core for one stream, fed record by record.

The serving loop is fault-tolerant: an input gate quarantines or
repairs corrupt records, refits run supervised with retry/backoff and a
fallback forecaster, every prediction carries a health status, and the
full serving state checkpoints to a crash-safe artifact. The
:mod:`~repro.streaming.faults` harness injects stream and refit faults
to exercise all of it. At fleet scale the sharded predictor adds
process-level self-healing — deadline-based failure detection,
supervised respawn with background checkpoint restore, a crash-loop
breaker — driven reproducibly by a :class:`ChaosSchedule` of scheduled
process faults.
"""

from .buffer import MatrixRingBuffer
from .checkpoint import (
    CheckpointError,
    read_checkpoint,
    try_read_checkpoint,
    write_checkpoint,
)
from .drift import DriftDetector, PageHinkley
from .faults import (
    ChaosSchedule,
    FaultConfig,
    FaultInjector,
    InjectedFault,
    ProcessFault,
)
from .fleet import FleetPredictor, FleetTick, PredictionRecord
from .online import OnlinePredictor
from .refit import AsyncRefitEngine, ModelSlot, RefitOutcome, RefitTask
from .resilience import (
    FleetGate,
    FleetGateResult,
    GatePolicy,
    HealthStatus,
    Supervisor,
    SupervisorPolicy,
)
from .shard import (
    AllShardsFailedError,
    RespawnPolicy,
    ShardedFleetPredictor,
    shard_boundaries,
)
from .shm import (
    SharedMatrixRingBuffer,
    ShmArraySpec,
    ShmBlock,
    SlottedShmBlock,
    ring_specs,
    slotted_specs,
)

__all__ = [
    "MatrixRingBuffer",
    "FleetPredictor",
    "FleetTick",
    "AsyncRefitEngine",
    "RefitTask",
    "RefitOutcome",
    "ModelSlot",
    "ShardedFleetPredictor",
    "RespawnPolicy",
    "AllShardsFailedError",
    "shard_boundaries",
    "SharedMatrixRingBuffer",
    "ShmBlock",
    "SlottedShmBlock",
    "ShmArraySpec",
    "ring_specs",
    "slotted_specs",
    "FleetGate",
    "FleetGateResult",
    "PageHinkley",
    "DriftDetector",
    "OnlinePredictor",
    "PredictionRecord",
    "HealthStatus",
    "GatePolicy",
    "Supervisor",
    "SupervisorPolicy",
    "FaultConfig",
    "FaultInjector",
    "InjectedFault",
    "ProcessFault",
    "ChaosSchedule",
    "CheckpointError",
    "write_checkpoint",
    "read_checkpoint",
    "try_read_checkpoint",
]
