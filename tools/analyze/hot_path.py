"""Rule ``hot-path``: the estimate path stays pure and allocation-free.

The per-request pipeline (every ``estimate*`` entry point → ``_admit``
→ ``_prepare`` → featurize → ``_run_batch`` → predict, plus the
micro-batcher's ``_flush``)
is the code FasCo's argument lives or dies on: a lightweight estimator
only wins at serving time if the serving path itself stays light.
Three checks inside hot-path functions:

1. **No ``time.time()``** — wall clock is non-monotonic (NTP steps it
   backwards); durations and deadlines use ``time.monotonic()`` /
   ``time.perf_counter()``.  Wall-clock *record* fields belong in
   tracing/event code, not here (see rule ``clock-discipline``).
2. **No span allocation without a null-tracer guard** — a
   ``start_span``/``start_batch_span``/``Span()`` call in a function
   that never checks ``tracer is None`` means tracing-off still
   allocates; the zero-allocation fast path (asserted by a tier-1
   test) requires the guard.  :func:`repro.obs.trace.open_span` *is*
   that guard, factored out (it returns the no-op ``NULL_SPAN`` when
   ``tracer is None`` and is itself a hot function, so its own guard
   is checked): calls to it are clean.
3. **No info-level logging or printing** — per-request logging is a
   syscall and a lock on the handler; the stack's counters and traces
   carry this information for free.
"""

from __future__ import annotations

import ast
import re
from typing import List

from .core import (
    Finding,
    ModuleSource,
    Rule,
    attribute_chain,
    call_name,
    qualname_of,
)

#: Function names that constitute the estimate path.
HOT_FUNCTIONS = re.compile(
    r"^("
    r"estimate|estimate_many|estimate_async|estimate_batch|_admit"
    r"|_prepare|prepare_one|predict|predict_prepared"
    r"|predict_prepared_batch|prepare_template|prepare_from_template"
    r"|fused_forward|merge_prepared|forward_batched|forward_block"
    r"|_forest_roots|forest_forward|forward_groups|group_forest|cut_groups"
    r"|block_gemm|pad_rows"
    r"|_resolve_plan|_run_batch|_flush|_take_batch|submit|get_or_compute"
    r"|open_span"
    r"|_resolve_key"
    r"|rpc|_with_failover|_replica|_classify|_settle"
    r"|encode_frame|decode_frame|recv_frame|has_frame|send_frames"
    r"|encode_request|env_section|split_request|decode_request|decode_env"
    r"|encode_plan|decode_plan|encoded_nodes|_node_from|plan"
    r"|_request|_single_request|_count_decode"
    r"|serve_batch|serve_estimates"
    r"|featurize\w*|plan_fingerprint|template_fingerprint"
    r"|encode_nodes|_one_hots|_numeric_block|fill_numerics"
    r"|walk_plans?|plan_topology|prepared_from_matrix"
    r")$"
)

#: Logging calls forbidden on the hot path.
_LOG_CALL = re.compile(r"(^|\.)(logging|logger|log)\.(info|debug|warning)$")


def _has_null_tracer_guard(fn: ast.AST) -> bool:
    """True when *fn* contains a ``<...tracer...> is (not) None`` test."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ):
            sides = [node.left, *node.comparators]
            for side in sides:
                chain = attribute_chain(side) or (
                    side.id if isinstance(side, ast.Name) else ""
                )
                if "tracer" in chain:
                    return True
    return False


def _check(module: ModuleSource) -> List[Finding]:
    """All hot-path findings in *module*."""
    findings: List[Finding] = []
    for fn in ast.walk(module.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not HOT_FUNCTIONS.match(fn.name):
            continue
        guarded = _has_null_tracer_guard(fn)
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name == "time.time":
                findings.append(
                    Finding(
                        rule="hot-path",
                        path=module.path,
                        line=node.lineno,
                        qualname=qualname_of(node),
                        message=(
                            "time.time() on the estimate path — durations "
                            "use time.monotonic()/time.perf_counter() "
                            "(wall clock can step backwards)"
                        ),
                    )
                )
            elif (
                name.endswith(".start_span")
                or name.endswith(".start_batch_span")
                or name == "Span"
            ) and not guarded:
                findings.append(
                    Finding(
                        rule="hot-path",
                        path=module.path,
                        line=node.lineno,
                        qualname=qualname_of(node),
                        message=(
                            "span allocation without a 'tracer is None' "
                            "guard — tracing-off must cost zero "
                            "allocations on the estimate path (open the "
                            "span with repro.obs.trace.open_span)"
                        ),
                    )
                )
            elif name == "print" or _LOG_CALL.search(name):
                findings.append(
                    Finding(
                        rule="hot-path",
                        path=module.path,
                        line=node.lineno,
                        qualname=qualname_of(node),
                        message=(
                            f"{name}() on the estimate path — per-request "
                            "logging/printing serialises threads on the "
                            "handler; use counters or traces"
                        ),
                    )
                )
    return findings


RULE = Rule(
    name="hot-path",
    summary=(
        "estimate-path functions: no time.time(), no unguarded span "
        "allocation, no per-request logging"
    ),
    check=_check,
)
