"""Span tracer for the benchmark's traced run.

The layers are matchenum's modules.  ``install`` wraps the public
functions of each layer from the outside and rebinds every name the
wrapped function is reachable by: module globals of every loaded
``matchenum`` module (so ``claims``, ``cli`` and ``spectra`` call the
wrapper), dict values such as ``counting.COUNTERS``, and the methods
``RegionSpec.build``, ``MatchGraph.faces`` and ``MatchGraph.subgraph``.
No file of the package changes.

A span's self time is its duration minus the time of the spans it
encloses.  Problem-size counters are computed at the call boundary from
the arguments and results (the engines count nothing themselves); the
time spent computing them is charged to no layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

perf = time.perf_counter

# counters derived from call arguments or results rather than counted
# inside the engines
COMPUTED = frozenset({
    "counting.det.dim_max",
    "counting.det.nonzero_share",
    "counting.det.bits_max",
    "counting.det.repeat_share",
    "counting.permanent.subsets",
    "transfer.cell_steps",
    "transfer.zero_share",
    "spectra.charpoly.dim_max",
    "regions.vertices",
})

# layers whose self time is reported
TIMED_LAYERS = (
    "counting.det", "counting.permanent", "counting.orient",
    "counting.biadjacency", "counting.brute", "counting.enumerate",
    "counting.kasteleyn", "transfer.sweep", "transfer.poly",
    "spectra.matrix", "spectra.charpoly", "spectra.jacobi",
    "regions.build", "graphs.faces", "graphs.subgraph", "claims", "cli",
)
COUNTED_LAYERS = ("counting.det", "counting.permanent", "transfer.sweep",
                  "regions.build", "graphs.subgraph", "cli")


class Tracer:
    """Per-layer self time, call counts and computed counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.count = Counter()       # additive computed counters
        self.peak = Counter()        # maximum computed counters
        self.ops: dict[str, dict] = {}
        self._stack: list[float] = []  # enclosed time of each open span
        self._op = None
        self._seen: set = set()

    def begin_op(self, name: str) -> None:
        """Start a new operation: layer calls and determinant repeats are
        also counted per operation."""
        self._op = self.ops.setdefault(
            name, {"det_calls": 0, "det_repeats": 0, "layers": Counter()})
        self._seen = set()

    def _count_call(self, layer: str) -> None:
        self.calls[layer] += 1
        if self._op is not None:
            self._op["layers"][layer] += 1

    # -- span wrappers ----------------------------------------------------

    def _observe(self, hook, *args) -> None:
        t0 = perf()
        hook(self, *args)
        if self._stack:  # charge the observation to no layer
            self._stack[-1] += perf() - t0

    def _close(self, layer: str, t0: float) -> None:
        elapsed = perf() - t0
        self.self_s[layer] += elapsed - self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed

    def wrap(self, layer, fn, before=None, after=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                self._observe(before, *args)
            self._count_call(layer)
            self._stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(layer, t0)
            if after is not None:
                self._observe(after, result, *args)
            return result

        return traced

    def _wrap_generator(self, layer, fn):
        # time each resumption; the consumer's work between items is not ours
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count_call(layer)
            gen = fn(*args, **kwargs)
            while True:
                self._stack.append(0.0)
                t0 = perf()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(layer, t0)
                yield item

        return traced

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        c, p = self.count, self.peak
        out = {f"{layer}.self_s": self.self_s[layer] for layer in TIMED_LAYERS}
        out.update({f"{layer}.calls": self.calls[layer] for layer in COUNTED_LAYERS})
        out.update({
            "counting.det.dim_max": p["det.dim"],
            "counting.det.nonzero_share": _share(c["det.nonzero"], c["det.entries"]),
            "counting.det.bits_max": p["det.bits"],
            "counting.det.repeat_share": _share(c["det.repeats"], self.calls["counting.det"]),
            "counting.permanent.subsets": c["permanent.subsets"],
            "transfer.cell_steps": c["transfer.cell_steps"],
            "transfer.zero_share": _share(c["transfer.zeros"], self.calls["transfer.sweep"]),
            "spectra.charpoly.dim_max": p["charpoly.dim"],
            "regions.vertices": c["regions.vertices"],
        })
        return out


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


# -- boundary observers --------------------------------------------------------


def _det_before(t: Tracer, matrix) -> None:
    n = len(matrix)
    t.peak["det.dim"] = max(t.peak["det.dim"], n)
    t.count["det.entries"] += n * n
    t.count["det.nonzero"] += sum(1 for row in matrix for v in row if v)
    key = tuple(map(tuple, matrix))
    repeat = key in t._seen
    t._seen.add(key)
    t.count["det.repeats"] += repeat
    if t._op is not None:
        t._op["det_calls"] += 1
        t._op["det_repeats"] += repeat


def _det_after(t: Tracer, result, matrix) -> None:
    t.peak["det.bits"] = max(t.peak["det.bits"], abs(result).bit_length())


def _permanent_after(t: Tracer, result, g, *_) -> None:
    m = sum(1 for c in g.color if c == 0)
    t.count["permanent.subsets"] += (1 << m) - 1


def _transfer_after(t: Tracer, result, spec) -> None:
    x, w = int(spec.params["x"]), int(spec.params["w"])
    t.count["transfer.cell_steps"] += (1 << w) * 2 * w * (2 * x + w + 1)
    t.count["transfer.zeros"] += result == 0


def _charpoly_before(t: Tracer, k) -> None:
    t.peak["charpoly.dim"] = max(t.peak["charpoly.dim"], k.dimension)


def _build_after(t: Tracer, g, spec) -> None:
    t.count["regions.vertices"] += g.n


# -- installation --------------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Route every call into the traced layers through ``tracer``."""
    from matchenum import claims, cli, counting, spectra, transfer
    from matchenum.graphs import MatchGraph
    from matchenum.regions import RegionSpec

    functions = [
        (counting, "det_bareiss", "counting.det", _det_before, _det_after),
        (counting, "count_permanent", "counting.permanent", None, _permanent_after),
        (counting, "kasteleyn_orient", "counting.orient", None, None),
        (counting, "signed_biadjacency", "counting.biadjacency", None, None),
        (counting, "count_brute", "counting.brute", None, None),
        (counting, "enumerate_matchings", "counting.enumerate", None, None),
        (counting, "count_kasteleyn", "counting.kasteleyn", None, None),
        (transfer, "transfer_count", "transfer.sweep", None, _transfer_after),
        (transfer, "detect_polynomial", "transfer.poly", None, None),
        (spectra, "kasteleyn_matrix", "spectra.matrix", None, None),
        (spectra, "kk_star_charpoly", "spectra.charpoly", _charpoly_before, None),
        (spectra, "singular_values", "spectra.jacobi", None, None),
        (cli, "cli_main", "cli", None, None),
    ]
    functions += [
        (claims, name, "claims", None, None)
        for name, fn in vars(claims).items()
        if inspect.isfunction(fn) and fn.__module__ == claims.__name__
        and not name.startswith("_")
    ]
    modules = [m for name, m in sys.modules.items()
               if name == "matchenum" or name.startswith("matchenum.")]
    for module, name, layer, before, after in functions:
        original = getattr(module, name)
        _rebind(modules, original, tracer.wrap(layer, original, before, after))

    methods = [
        (RegionSpec, "build", "regions.build", _build_after),
        (MatchGraph, "faces", "graphs.faces", None),
        (MatchGraph, "subgraph", "graphs.subgraph", None),
    ]
    for cls, name, layer, after in methods:
        setattr(cls, name, tracer.wrap(layer, getattr(cls, name), None, after))


def _rebind(modules, original, wrapped) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapped
