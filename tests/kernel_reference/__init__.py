"""A frozen reference copy of the DES kernel (``repro.sim.core`` and
``repro.sim.resources``) for differential tests of the live one."""

from .core import Environment, Event, Process
from .resources import Request, Resource, Semaphore

__all__ = ["Environment", "Event", "Process", "Request", "Resource", "Semaphore"]
