"""Outside-in span tracer for qualint's public functions.

``Tracer.install()`` replaces each target function with a timing wrapper in
*every* loaded ``qualint`` module that binds it (``cli``, ``simulation`` and
``inference`` import by name), and ``uninstall()`` restores the originals.
A target that no longer exists is reported in ``absent`` and its metrics
read 0.

Spans are timed in thread CPU time, so a span on a pool thread is not
charged for the time it waits for the interpreter lock while another thread
runs.  Spans nest per thread, and a span's self time is its duration minus
its children's.  A span that starts with an empty stack on a pool thread is
charged to the innermost open span of the main thread (the call that
started the pool): its time counts in that span's inclusive time, and the
pool thread's time between such root spans (the engine's own loop) counts
in that span's self time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

import numpy as np

PACKAGE = "qualint"

# module -> public names to wrap; "Class.method" wraps a method in place.
TARGETS = {
    "cli": ("main",),
    "simulation": ("run_rejection_study", "generate_dataset"),
    "estimators": ("Sample2D.__post_init__", "pearson", "ols_slope"),
    "inference": ("kappa_max", "rd_test", "omnibus_test", "rd_local_power",
                  "omnibus_local_power", "rd_null_quantile", "rd_statistic"),
    "distributions": ("bvn_upper_tail", "find_root_monotone"),
}

KAPPA_MAX = "inference.kappa_max"
RD_STATISTIC = "inference.rd_statistic"
FIND_ROOT = "distributions.find_root_monotone"


def span_name(module: str, target: str) -> str:
    return f"{module}.{target.split('.')[0]}"


SPANS = tuple(span_name(m, t) for m, names in TARGETS.items() for t in names)

_FULL = ("calls", "elements", "self_s", "us_per_call")

# The per-layer metrics a traced run reports: module self times, then the
# span metrics an optimisation of that layer is expected to move.
PER_LAYER = (
    "trace.overhead_s",
    *(f"{module}.self_s" for module in TARGETS),
    "simulation.run_rejection_study.self_s",
    *(f"simulation.generate_dataset.{m}" for m in _FULL),
    *(f"estimators.Sample2D.{m}" for m in ("calls", "self_s", "us_per_call")),
    *(f"estimators.{fn}.{m}" for fn in ("pearson", "ols_slope") for m in _FULL),
    *(f"inference.kappa_max.{m}" for m in (*_FULL, "rd_statistic_per_call", "share_no_reject",
                                           "share_zero_point_binding", "share_inf_root")),
    *(f"inference.{fn}.{m}" for fn in ("rd_test", "omnibus_test", "rd_local_power",
                                       "omnibus_local_power") for m in _FULL),
    *(f"inference.rd_null_quantile.{m}" for m in ("calls", "self_s", "us_per_call")),
    *(f"inference.rd_statistic.{m}" for m in ("calls", "self_s")),
    *(f"distributions.bvn_upper_tail.{m}" for m in _FULL),
    *(f"distributions.find_root_monotone.{m}" for m in ("calls", "self_s", "evals_per_call")),
)


def _elements(args, kwargs) -> int:
    """Largest array size among the arguments; scalars and objects count 1."""
    n = 1
    for value in itertools.chain(args, kwargs.values()):
        if isinstance(value, np.ndarray):
            n = max(n, value.size)
        elif isinstance(value, (list, tuple)):
            n = max(n, len(value))
    return n


class _Frame:
    __slots__ = ("start", "child", "pool_incl", "pool_self")

    def __init__(self, start: float):
        self.start = start
        self.child = 0.0
        self.pool_incl = 0.0  # root spans on pool threads and the gaps between them
        self.pool_self = 0.0  # the gaps alone


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[_Frame] = []
        self.active: dict[str, int] = {}
        self.stats: dict | None = None
        self.counts: dict | None = None
        self.last_root_end: float | None = None


class Tracer:
    """Wraps qualint's public functions with spans and counters."""

    def __init__(self):
        self._state = _ThreadState()
        self._lock = threading.Lock()
        self._tables: list[tuple[dict, dict]] = []
        self._main_stack: list[_Frame] | None = None
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        self._main_stack = self._thread().stack
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        self.absent = []
        for module, targets in TARGETS.items():
            owner_module = sys.modules.get(f"{PACKAGE}.{module}")
            for target in targets:
                name = span_name(module, target)
                owner, attr = owner_module, target
                if "." in target:
                    cls_name, attr = target.split(".")
                    owner = getattr(owner_module, cls_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                if "." in target:
                    self._patch(owner, attr, original, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- recording --------------------------------------------------------

    def _thread(self) -> _ThreadState:
        state = self._state
        if state.stats is None:
            state.stats, state.counts = {}, {}
            with self._lock:
                self._tables.append((state.stats, state.counts))
        return state

    def _count(self, state: _ThreadState, key: str, amount: int = 1) -> None:
        state.counts[key] = state.counts.get(key, 0) + amount

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._thread()
            stack = state.stack
            pool_parent = None
            if not stack and stack is not tracer._main_stack and tracer._main_stack:
                pool_parent = tracer._main_stack[-1]
            elements = _elements(args, kwargs)
            if name == RD_STATISTIC and state.active.get(KAPPA_MAX):
                tracer._count(state, "kappa_max.rd_statistic")
            if name == FIND_ROOT:
                args, kwargs = tracer._count_evals(state, args, kwargs)
            state.active[name] = state.active.get(name, 0) + 1
            frame = _Frame(time.thread_time())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.thread_time()
                stack.pop()
                state.active[name] -= 1
                duration = end - frame.start
                record = state.stats.get(name)
                if record is None:
                    record = state.stats[name] = [0, 0, 0.0, 0.0]
                record[0] += 1
                record[1] += elements
                record[2] += duration + frame.pool_incl
                record[3] += duration - frame.child + frame.pool_self
                if stack:
                    stack[-1].child += duration
                    stack[-1].pool_incl += frame.pool_incl
                else:
                    if pool_parent is not None:
                        last = state.last_root_end
                        gap = 0.0 if last is None else frame.start - last
                        with tracer._lock:
                            pool_parent.pool_incl += gap + duration
                            pool_parent.pool_self += gap
                    state.last_root_end = end
            if name == KAPPA_MAX:
                tracer._count_kappa_max(state, result)
            return result

        return wrapper

    def _count_evals(self, state, args, kwargs):
        def counted(f):
            def g(*a, **k):
                self._count(state, "find_root.evals")
                return f(*a, **k)
            return g

        if args and callable(args[0]):
            args = (counted(args[0]), *args[1:])
        elif callable(kwargs.get("f")):
            kwargs = {**kwargs, "f": counted(kwargs["f"])}
        return args, kwargs

    def _count_kappa_max(self, state, result) -> None:
        """Input-property counts from kappa_max results, scalar or batched."""
        binding = getattr(result, "binding_root", None)
        if binding is None:
            return
        binding = np.asarray(binding)
        self._count(state, "kappa_max.results", int(binding.size))
        self._count(state, "kappa_max.no_reject", int(np.sum(binding == "none")))
        self._count(state, "kappa_max.zero_point", int(np.sum(binding == "zero_point")))
        roots = getattr(result, "roots", None)
        if roots is None:
            return
        try:
            pi2 = np.asarray(roots, dtype=float)[..., 1]
        except (TypeError, ValueError, IndexError):
            return
        self._count(state, "kappa_max.inf_root", int(np.sum(np.isinf(pi2))))

    # -- results ----------------------------------------------------------

    def snapshot_and_reset(self) -> tuple[dict, dict]:
        """Merged (span stats, counters) since the last call; then clear."""
        stats: dict[str, list] = {}
        counts: dict[str, int] = {}
        with self._lock:
            for table, table_counts in self._tables:
                for name, rec in table.items():
                    acc = stats.setdefault(name, [0, 0, 0.0, 0.0])
                    for i in range(4):
                        acc[i] += rec[i]
                for key, value in table_counts.items():
                    counts[key] = counts.get(key, 0) + value
                table.clear()
                table_counts.clear()
        return stats, counts


def layer_metrics(stats: dict, counts: dict) -> dict[str, float]:
    """Per-invocation span metrics from one snapshot (a superset of PER_LAYER)."""
    out: dict[str, float] = {}

    def rec(name):
        return stats.get(name, [0, 0, 0.0, 0.0])

    for name in SPANS:
        calls, elements, incl, own = rec(name)
        out[f"{name}.calls"] = calls
        out[f"{name}.elements"] = elements
        out[f"{name}.self_s"] = own
        out[f"{name}.incl_s"] = incl
        out[f"{name}.us_per_call"] = incl / calls * 1e6 if calls else 0.0
    for module in TARGETS:
        out[f"{module}.self_s"] = sum(
            rec(name)[3] for name in SPANS if name.startswith(module + ".")
        )
    kmax_calls = rec(KAPPA_MAX)[0]
    out[f"{KAPPA_MAX}.rd_statistic_per_call"] = (
        counts.get("kappa_max.rd_statistic", 0) / kmax_calls if kmax_calls else 0.0
    )
    results = counts.get("kappa_max.results", 0)
    for metric, key in (("share_no_reject", "kappa_max.no_reject"),
                        ("share_zero_point_binding", "kappa_max.zero_point"),
                        ("share_inf_root", "kappa_max.inf_root")):
        out[f"{KAPPA_MAX}.{metric}"] = counts.get(key, 0) / results if results else 0.0
    root_calls = rec(FIND_ROOT)[0]
    out[f"{FIND_ROOT}.evals_per_call"] = (
        counts.get("find_root.evals", 0) / root_calls if root_calls else 0.0
    )
    return out
