"""Continual-query semantics and management (the paper's Section 3 & 5).

See DESIGN.md S5.
"""

from repro.core.continual_query import (
    ContinualQuery,
    CQStatus,
    DeliveryMode,
    Engine,
)
from repro.core.epsilon import (
    CountEpsilon,
    EpsilonSpec,
    MagnitudeEpsilon,
    NetChangeEpsilon,
    ResultDriftEpsilon,
)
from repro.core.gc import ActiveDeltaZones
from repro.core.manager import CQManager, EvaluationStrategy
from repro.core.persistence import (
    UnserializableCQ,
    load_manager,
    manager_from_dict,
    manager_to_dict,
    save_manager,
)
from repro.core.results import Notification, NotificationKind
from repro.core.scheduler import (
    DeltaBatchCache,
    is_data_only_trigger,
    is_skip_safe,
)
from repro.core.views import MaterializedView
from repro.core.termination import (
    AfterExecutions,
    AtTime,
    Never,
    StopCondition,
    WhenCondition,
)
from repro.core.triggers import (
    AllOf,
    AnyOf,
    At,
    Custom,
    EpsilonTrigger,
    Every,
    EverySinceResult,
    OnEveryChange,
    OnUpdate,
    Trigger,
    TriggerContext,
)

__all__ = [
    "ActiveDeltaZones",
    "AfterExecutions",
    "AllOf",
    "AnyOf",
    "At",
    "AtTime",
    "CQManager",
    "CQStatus",
    "ContinualQuery",
    "CountEpsilon",
    "Custom",
    "DeliveryMode",
    "DeltaBatchCache",
    "Engine",
    "EpsilonSpec",
    "EpsilonTrigger",
    "EvaluationStrategy",
    "Every",
    "EverySinceResult",
    "MagnitudeEpsilon",
    "MaterializedView",
    "Never",
    "NetChangeEpsilon",
    "Notification",
    "NotificationKind",
    "OnEveryChange",
    "OnUpdate",
    "ResultDriftEpsilon",
    "StopCondition",
    "Trigger",
    "TriggerContext",
    "UnserializableCQ",
    "WhenCondition",
    "is_data_only_trigger",
    "is_skip_safe",
    "load_manager",
    "manager_from_dict",
    "manager_to_dict",
    "save_manager",
]
