"""In-memory span tracer that wraps schurbott's public functions from outside.

Each traced name is wrapped at every place a caller looks it up: the module
globals of every loaded ``schurbott`` module that hold the same object, and
the entries of ``verify.ALL_CHECKS`` (``run_all`` iterates that list).
Methods and constructors are wrapped on their class.  No file under ``src/``
changes.

Spans are kept in memory, aggregated per name as (calls, total seconds, self
seconds).  Self time is a span's duration minus the durations of the spans
it directly encloses, so at every instant at most one span accrues self time
and the self times of a pass sum to no more than the pass itself.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

PACKAGE = "schurbott"

# Every time the benchmark reports is CPU time of the one worker process.
# The program is single-threaded and does no I/O while timed, so on an idle
# machine this equals the wall time a user waits.  Unlike wall time, it
# leaves out time a shared machine gives to other processes.  Over six runs
# of the same code on a 2-core Linux machine shared with other jobs, the
# fibre-sweep tail spread (quartile distance over median) by 54% in wall
# time and by 5% in CPU time.
CLOCK = time.process_time


def package_modules() -> list:
    """The loaded schurbott modules, in a stable order."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def package_caches() -> dict:
    """Every lru_cache-wrapped function found on the package's modules."""
    caches = {}
    for mod in package_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_info", None)):
                caches[f"{value.__module__}.{value.__qualname__}"] = value
    return caches


def cache_state(caches: dict) -> dict:
    """(hits, misses, currsize) of each cache, keyed by its defining name."""
    state = {}
    for name, fn in caches.items():
        info = fn.cache_info()
        state[name] = [info.hits, info.misses, info.currsize]
    return state


class Tracer:
    """Aggregated spans plus the per-layer counters read at the same boundaries."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._restore: list = []
        self._on = [True]

    @contextlib.contextmanager
    def paused(self):
        """Let the program run untraced, e.g. while the harness hashes outputs."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    def _span(self, name: str, fn, on_result=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = CLOCK
        on = self._on

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod in package_modules():
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                if value is original:
                    self._restore.append((setattr, mod, attr, value))
                    setattr(mod, attr, wrapper)
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        if item is original:
                            self._restore.append((list.__setitem__, value, i, item))
                            value[i] = wrapper

    def _replace_on_class(self, cls, attr: str, wrapper) -> None:
        self._restore.append((setattr, cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def function(self, name: str, fn, on_result=None) -> None:
        self._replace_everywhere(fn, self._span(name, fn, on_result))

    def method(self, name: str, cls, attr: str) -> None:
        self._replace_on_class(cls, attr, self._span(name, cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._restore:
            op, target, key, value = self._restore.pop()
            op(target, key, value)


def install_layer_tracing(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    mods = {mod.__name__.rpartition(".")[2]: mod for mod in package_modules()}
    partitions, rep_ring, bwb = mods["partitions"], mods["rep_ring"], mods["bwb"]

    def count_zero(outcome) -> None:
        tracer.counters["bwb.bwb_single.zero"] += outcome.is_zero

    tracer.counters["bwb.bwb_single.zero"] = 0
    tracer.method("partitions.Weight", partitions.Weight, "__init__")
    for fn in ("tensor", "lr_coefficients", "char_of", "decompose", "ext_power", "sym_power", "weyl_dim"):
        tracer.function(f"rep_ring.{fn}", getattr(rep_ring, fn))
    tracer.function("bwb.bwb_single", bwb.bwb_single, on_result=count_zero)
    tracer.function("bwb.cohomology", bwb.cohomology)
    tracer.method("bwb.BundleExpr.tensor", bwb.BundleExpr, "tensor")
    tracer.function("bundle_calculus.wedge_nprime", mods["bundle_calculus"].wedge_nprime)
    for fn in ("check_semiorthogonal", "check_fully_faithful", "check_exceptional", "ext_decomposition"):
        tracer.function(f"soc.{fn}", getattr(mods["soc"], fn))
    # one span per witness record built
    tracer.method("soc.conditions", mods["soc"].ConditionRecord, "__init__")
    # the package's __init__ imports every module but these two
    if "verify" in mods:
        for check in list(mods["verify"].ALL_CHECKS):
            tracer.function(f"verify.{check.__name__}", check)
    if "cli" in mods:
        tracer.function("cli.main", mods["cli"].main)
