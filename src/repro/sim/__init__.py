"""Discrete-event simulation core.

``repro.sim`` is the substrate the execution engine runs on: a deterministic
event queue (:mod:`repro.sim.queue`), named resources — GPU devices with
in-order streams and GPU<->GPU interconnect links
(:mod:`repro.sim.resources`) — and a process scheduler with rendezvous
synchronization for collectives (:mod:`repro.sim.core`).

The engine's execution modes are written as *processes* on this core
(:mod:`repro.engine.processes`); the core itself knows nothing about
operators, kernels, or traces, so new resource kinds (more streams per
device, heterogeneous devices, multi-link topologies) plug in without
touching the engine.

A core built with ``SimCore(causality=CausalityLog())`` additionally
records every scheduling decision — spawns, resumes with their tie-break
keys, rendezvous joins/releases, KV grants, stream occupancy — for the
offline happens-before pass (:mod:`repro.check.hb`). Logging off (the
default) is bit-identical to pre-causality behavior.
"""

from repro.sim.causality import CausalityEvent, CausalityLog
from repro.sim.core import Rendezvous, SimCore
from repro.sim.queue import EventQueue, PerturbedEventQueue
from repro.sim.resources import GpuDevice, LinkResource, StreamResource

__all__ = [
    "CausalityEvent",
    "CausalityLog",
    "EventQueue",
    "GpuDevice",
    "LinkResource",
    "PerturbedEventQueue",
    "Rendezvous",
    "SimCore",
    "StreamResource",
]
