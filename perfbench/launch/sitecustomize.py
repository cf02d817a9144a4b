"""Launcher hook for the traced routed run's server processes.

``perfbench`` puts this directory on the PYTHONPATH of the processes
that ``repro.service.harness.ClusterHarness`` spawns, so Python imports
this module at start-up, before ``python -m repro`` hands the unchanged
harness argv to ``repro.cli.main``.  With ``PERFBENCH_TRACE_DIR`` set
it wraps the server-side layers (``perfbench.spans.install_server``)
with recording off; SIGUSR1 turns recording on and SIGUSR2 off again,
and the spans are written to ``$PERFBENCH_TRACE_DIR/<pid>.json`` when
the process exits (the benchmark stops servers with the protocol's
``shutdown`` verb, so exit handlers run).
"""

import os
import sys

_TRACE_DIR = os.environ.get("PERFBENCH_TRACE_DIR")

if _TRACE_DIR:
    import atexit
    import signal

    _ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.path.insert(0, _ROOT)
    from perfbench import spans as _spans

    _buffer = _spans.SpanBuffer(enabled=False)
    _spans.install_server(_buffer)

    def _record(signum, frame):
        _buffer.enabled = signum == signal.SIGUSR1

    signal.signal(signal.SIGUSR1, _record)
    signal.signal(signal.SIGUSR2, _record)
    atexit.register(
        lambda: _buffer.dump(os.path.join(_TRACE_DIR, f"{os.getpid()}.json"))
    )
