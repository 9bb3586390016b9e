"""Hot-path clean twin: monotonic timing, guarded spans, no logging."""

import time


class _NullSpan:
    """No-op span handed out when tracing is off."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None


NULL_SPAN = _NullSpan()


def open_span(tracer, name):
    """The guarded allocator: no span object when tracing is off."""
    if tracer is None:
        return NULL_SPAN
    return tracer.start_span(name)


def _prepare(plan, tracer):
    """A stage span through the guarded allocator needs no own guard."""
    with open_span(tracer, "featurize"):
        return len(str(plan))


def estimate(plan, tracer):
    """Monotonic duration; span only when a tracer is attached."""
    start = time.perf_counter()
    span = None
    if tracer is not None:
        span = tracer.start_span("estimate")
    result = len(str(plan))
    if span is not None:
        span.finish()
    return result, time.perf_counter() - start


def rpc(kind, payload):
    """Monotonic deadline on the IPC request path; no logging."""
    deadline = time.monotonic() + 5.0
    return kind, payload, deadline
