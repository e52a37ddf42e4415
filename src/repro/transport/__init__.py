"""Transport layer: simplified TCP Reno and wireless mitigations.

The survey (§1): transport protocols *"are designed to work well when
deployed on reliable links, thus causing problems when working in
wireless conditions.  This can be mitigated in various ways, ranging from
splitting a connection, to probing, creating supporting links and
completely new end-to-end protocols."*

- :mod:`repro.transport.path` — a one-way network path with bandwidth,
  delay and a pluggable loss process;
- :mod:`repro.transport.tcp` — a compact TCP Reno: slow start, congestion
  avoidance, fast retransmit/recovery, RTO with Karn/Jacobson estimation.
  Its well-known failure mode — treating wireless loss as congestion —
  is what the mitigations fix;
- :mod:`repro.transport.mitigation` — split-connection (I-TCP style) and
  snoop (Berkeley style) agents at the base station.
"""

from repro._namespace import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "path": ("NetworkPath", "Segment"),
        "tcp": ("TcpReceiver", "TcpSender", "TcpStats"),
        "mitigation": ("SnoopAgent", "run_split_connection"),
    },
)
