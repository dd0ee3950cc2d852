"""Runtime substrate: heap, interpreter, per-core schedulers, machine."""

from .interp import Interpreter, TaskEffects, make_startup_object
from .machine import MachineConfig, MachineResult, ManyCoreMachine
from .objects import BArray, BObject, Heap, TagInstance
from .profiler import ProfileData
from .scheduler import CoreScheduler, Invocation, LockManager

__all__ = [
    "BArray",
    "BObject",
    "CoreScheduler",
    "Heap",
    "Interpreter",
    "Invocation",
    "LockManager",
    "MachineConfig",
    "MachineResult",
    "ManyCoreMachine",
    "ProfileData",
    "TagInstance",
    "TaskEffects",
    "make_startup_object",
]
