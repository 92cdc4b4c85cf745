"""``repro.serve`` — the persistent, multi-tenant exploration service.

Where :mod:`repro.explore` is a one-shot process pool that dies with
its terminal, this package is the resident layer the north star's
traffic serving needs: a long-running asyncio service that accepts
sweep specs over HTTP (and the ``repro serve`` / ``submit`` / ``watch``
/ ``jobs`` CLI), compiles each into an immutable
:class:`~repro.serve.protocol.SweepPlan`, and drives it through a
guarded lifecycle with **exactly one terminal event per run** while all
tenants' jobs multiplex over one shared priority queue, one
crash-isolated executor, and one content-addressed cache.

* :mod:`~repro.serve.protocol` — plans, run-level events, envelopes;
* :mod:`~repro.serve.lifecycle` — the guarded run state machine;
* :mod:`~repro.serve.scheduler` — queue, dedup, retries, cancellation;
* :mod:`~repro.serve.storage` — the durable data-dir layout;
* :mod:`~repro.serve.http` — the stdlib asyncio HTTP front end;
* :mod:`~repro.serve.client` — the blocking client the CLI uses.

See ``docs/serving.md`` for the wire protocol and curl transcripts.
"""

from .client import ServiceClient, ServiceUnreachable
from .http import DEFAULT_PORT, HttpServer, run_service
from .lifecycle import (
    TERMINAL_STATUSES,
    LifecycleError,
    RunState,
    RunStateMachine,
)
from .protocol import (
    PROTOCOL_VERSION,
    RunAccepted,
    RunEvent,
    RunFinished,
    RunStateChanged,
    ServeError,
    SweepPlan,
    decode_event,
    encode_event,
)
from .scheduler import SERVICE_OPTIONS, RunHandle, SweepService
from .storage import ServiceStorage

__all__ = [
    "ServiceClient",
    "ServiceUnreachable",
    "DEFAULT_PORT",
    "HttpServer",
    "run_service",
    "TERMINAL_STATUSES",
    "LifecycleError",
    "RunState",
    "RunStateMachine",
    "PROTOCOL_VERSION",
    "RunAccepted",
    "RunEvent",
    "RunFinished",
    "RunStateChanged",
    "ServeError",
    "SweepPlan",
    "decode_event",
    "encode_event",
    "RunHandle",
    "SERVICE_OPTIONS",
    "SweepService",
    "ServiceStorage",
]
