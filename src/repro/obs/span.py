"""The span API's name for the run's event ring.

Spans, instants and flows are written to and read from
:class:`~repro.sim.tracing.TraceLog`, the one event ring of a run (see
that module). ``Tracer`` is the same class under its span-side name:
``perfbench/layers.py`` charges host time to the ``obs.tracer`` layer by
wrapping methods of ``repro.obs.span:Tracer``, so the name stays
importable here.
"""

from repro.sim.tracing import TraceLog

Tracer = TraceLog
