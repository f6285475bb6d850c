"""Span tracer that wraps frobmatch's public functions from outside the package.

frobmatch modules import names directly (`from frobmatch.elliptic import
ap_bsgs`), so wrapping a function means replacing its binding in every
frobmatch module that holds it, and putting each original back afterwards.
Default arguments bound at definition time (`scan_pair(..., trace_fn=ap_bsgs)`)
keep the original.  Spans stay in memory until the run ends.  Only the process that installed the
tracer records: pool workers forked while it is installed call the originals.
"""

from __future__ import annotations

import importlib
import itertools
import os
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped by `install`; the metric name of each is
# "<last module component>.<function>".
TARGETS: tuple[tuple[str, str], ...] = (
    ("frobmatch.config", "parse_config"),
    ("frobmatch.experiment", "run_experiment"),
    ("frobmatch.experiment", "compute_traces"),
    ("frobmatch.elliptic", "ap_bsgs"),
    ("frobmatch.elliptic", "ap_naive"),
    ("frobmatch.cache", "read_trace_cache"),
    ("frobmatch.cache", "write_trace_cache"),
    ("frobmatch.frobenius", "good_primes"),
    ("frobmatch.arith", "primes_in"),
    ("frobmatch.frobenius", "scan_pair"),
    ("frobmatch.arith", "squarefree_part"),
    ("frobmatch.frobenius", "write_match_csv"),
    ("frobmatch.experiment", "write_growth_csv"),
    ("frobmatch.sieve", "build_prime_window"),
    ("frobmatch.sieve", "sieve_bound_v2"),
    ("frobmatch.sieve", "square_count_exact"),
    ("frobmatch.experiment", "write_sieve_csv"),
    ("frobmatch.experiment", "write_residue_csv"),
    ("frobmatch.frobenius", "chebotarev_empirical"),
    ("frobmatch.gl2", "class_ratio"),
    ("frobmatch.svgplot", "render_loglog_svg"),
)

# Called about 1.6M times per sieve evaluation at z = 100: counted, not spanned.
COUNTED: tuple[tuple[str, str], ...] = (("frobmatch.arith", "jacobi_symbol"),)


class Span:
    __slots__ = ("name", "start", "end", "parent", "arg")

    def __init__(self, name: str, start: float, end: float, parent: int, arg=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 at top level
        self.arg = arg  # the prime, for ap_bsgs spans


def metric_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        # calls to each counted function, filled in by `restore`
        self.calls: dict[str, int] = {}
        self._counters: dict[str, itertools.count] = {}
        # compute_traces: primes asked for / found in the cache it was given
        self.primes_requested = 0
        self.primes_cached = 0
        self.cache_bytes_written = 0
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack, pid = self.spans, self._stack, self._pid
        clock = time.perf_counter
        keep_arg = name == "elliptic.ap_bsgs"

        def wrapper(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1,
                        args[1] if keep_arg else None)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            self._note(name, args, kwargs)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counter = self._counters[name] = itertools.count()

        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    def _note(self, name: str, args, kwargs) -> None:
        if name == "experiment.compute_traces":
            primes = args[1]
            cached = args[3] if len(args) > 3 else kwargs.get("cached")
            self.primes_requested += len(primes)
            if cached:
                self.primes_cached += sum(1 for p in primes if p in cached)
        elif name == "cache.write_trace_cache":
            self.cache_bytes_written += os.path.getsize(args[0])

    # -- install / restore ------------------------------------------------

    def install(self) -> None:
        """Replace every binding of each target in the loaded frobmatch modules."""
        for module, attr in TARGETS:
            self._patch(module, attr, self._spanned)
        for module, attr in COUNTED:
            self._patch(module, attr, self._counted)

    def _patch(self, module: str, attr: str, make_wrapper) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapper = make_wrapper(metric_name(module, attr), original)
        for name, mod in list(sys.modules.items()):
            if mod is None or name.split(".")[0] != "frobmatch":
                continue
            if vars(mod).get(attr) is original:
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)
        # next() on a count yields how many times it was advanced before
        self.calls.update((name, next(c)) for name, c in self._counters.items())
        self._counters.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# -- span arithmetic ------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = union_length(
            (max(a, s.start), min(b, s.end)) for a, b in children[i] if b > s.start and a < s.end
        )
        out.append(s.end - s.start - covered)
    return out


def layer_time(spans: list[Span], layer: str) -> float:
    """Wall time covered by any span of one module (e.g. "elliptic")."""
    prefix = layer + "."
    return union_length((s.start, s.end) for s in spans if s.name.startswith(prefix))
