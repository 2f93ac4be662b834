"""Chaos engineering for the simulated stack: declarative fault plans
executed deterministically against the cluster, YARN, and shuffle.

The crash-anywhere sweep and soak are ``python -m repro.chaos.sweep``;
the package does not import that module, so running it as ``__main__``
finds it unloaded."""

from .controller import ChaosController
from .plan import Fault, FaultKind, FaultPlan
from .witness import CrashWitness

__all__ = ["ChaosController", "CrashWitness", "Fault", "FaultKind",
           "FaultPlan"]
