"""Live service layer: the scheduler as a long-running wall-clock process.

Everything below :mod:`repro.grid` runs on virtual time — the simulator
finishes a day-long trace in seconds.  This subpackage stands the same
scheduling stack up on *wall-clock* time, as a service a load generator can
actually overload:

* :mod:`repro.service.clock` — the injectable :class:`Clock`
  (:class:`WallClock` in production, :class:`FakeClock` in tests);
* :mod:`repro.service.state` — :class:`SchedulerCore`, the synchronous,
  thread-safe heart: bounded submission queue, shed/degrade overload state
  machine, batch construction, plan commit, metrics counters;
* :mod:`repro.service.server` — :class:`SchedulerServer`, the asyncio
  front-end firing activations in a worker thread at the
  :class:`~repro.core.config.ActivationPolicy` cadence;
* :mod:`repro.service.protocol` — the TCP/JSON line protocol and its
  :class:`ServiceClient`;
* :mod:`repro.service.loadgen` — the open-loop :class:`LoadGenerator`
  replaying trace-family arrivals at :class:`~repro.core.config.
  LoadProfile`-shaped rates;
* :mod:`repro.service.chaos` — the seedable :class:`FaultInjector`
  breaking and repairing park machines on wall-clock time (the live
  analogue of the ``flaky`` trace family, wired to ``loadgen --chaos``).

Configured by :class:`~repro.core.config.ServiceConfig`; exposed on the
command line as ``repro-scheduler serve`` and ``repro-scheduler loadgen``.
"""

from repro.service.chaos import ChaosReport, FaultEvent, FaultInjector
from repro.service.clock import Clock, FakeClock, WallClock
from repro.service.loadgen import LoadGenerator, LoadReport
from repro.service.protocol import ServiceClient, serve_protocol
from repro.service.server import SchedulerServer
from repro.service.state import ActivationOutcome, SchedulerCore, ServiceSnapshot

__all__ = [
    "ChaosReport",
    "FaultEvent",
    "FaultInjector",
    "Clock",
    "FakeClock",
    "WallClock",
    "LoadGenerator",
    "LoadReport",
    "ServiceClient",
    "serve_protocol",
    "SchedulerServer",
    "ActivationOutcome",
    "SchedulerCore",
    "ServiceSnapshot",
]
