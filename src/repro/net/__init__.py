"""Real wire transport: the file service over TCP sockets.

The paper's service speaks Amoeba transactions — request/response RPC to
ports, with failover to companion servers (§4).  :mod:`repro.sim` models
that wire; this package *is* that wire:

* :mod:`repro.net.wire` — the versioned, length-prefixed binary codec
  for request / reply / error frames;
* :mod:`repro.net.server` — :class:`~repro.net.server.NetServer`, the
  threaded socket daemon hosting any ``cmd_*`` server object, one TCP
  port per paper port; read-only commands run without the dispatch lock;
* :mod:`repro.net.transport` — :class:`~repro.net.transport.TcpNetwork`
  (the simulated network's interface over pooled, pipelined real
  connections) and :class:`~repro.net.transport.TcpTransaction`
  (per-call timeouts, bounded retry with backoff, deterministic
  companion failover);
* :mod:`repro.net.cluster` — :func:`~repro.net.cluster.build_tcp_cluster`
  to launch a whole single-pair or sharded topology of daemons on
  localhost, plus the spec strings ``repro serve`` / ``repro connect``
  exchange.

Everything above the transport — OCC, stores, clients — runs unchanged;
see docs/NETWORKING.md for the wire format and the sim/TCP parity matrix.
"""

from repro.net.cluster import (
    TcpCluster,
    bootstrap,
    build_tcp_cluster,
    connect,
    parse_spec,
)
from repro.net.server import NetServer
from repro.net.transport import (
    PipelinedConnection,
    TcpNetwork,
    TcpTransaction,
    WallClock,
)

__all__ = [
    "NetServer",
    "PipelinedConnection",
    "TcpCluster",
    "TcpNetwork",
    "TcpTransaction",
    "WallClock",
    "bootstrap",
    "build_tcp_cluster",
    "connect",
    "parse_spec",
]
