"""In-memory span tracer that wraps chroma's public functions from outside.

Every public function of the traced modules is replaced, at each module
attribute that refers to it, by a wrapper that records one span: name,
start, end, parent span and request id (the graph6 line being examined).
Three coloring methods that the per-layer split needs are wrapped on the
class.  Spans live in flat arrays while a pass runs; `layer_totals` turns
them into per-layer seconds and counts, with self time taken as a span's
duration minus the union of its children's intervals.

Nothing under ``src/`` is changed: `Tracer.install` patches attributes and
`Tracer.uninstall` restores them, so untraced runs call the bare functions.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from contextlib import contextmanager
from time import perf_counter

TRACED_MODULES = ("graph", "oracle", "coloring", "fans", "kpath5", "overfull", "census")
TRACED_METHODS = ("kempe_chain", "is_elementary", "from_assignment")

# Spans opened directly under a request span, mapped to the layer that owns
# them.  kierstead_paths and find_forklike are named with their length or
# kind argument, so each suite gets the enumeration it asked for.
SUITE_OF = {
    "fans.check_val": "val",
    "fans.grow_multifan": "multifan",
    "fans.validate_multifan": "multifan",
    "coloring.PartialEdgeColoring.is_elementary": "fan-linkage",
    "fans.alpha_decompose": "fan-linkage",
    "fans.validate_fan_linkage": "fan-linkage",
    "fans.kierstead_paths[4]": "kierstead4",
    "fans.validate_kierstead4": "kierstead4",
    "fans.kierstead_paths[5]": "kierstead5",
    "kpath5.canonicalize_k5_path": "kierstead5",
    "fans.check_degree_dichotomy": "degree-dichotomy",
    "fans.check_fork_exclusion": "fork",
    "fans.find_forklike[short-kite]": "short-kite",
    "fans.validate_shortkite": "short-kite",
    "fans.find_forklike[kite]": "kite",
    "fans.validate_kite": "kite",
    "overfull.parity_check": "parity",
}
TOP_LAYER_OF = {
    "oracle.chromatic_index": "oracle.classify_s",
    "oracle.is_delta_critical": "oracle.certify_s",
    "oracle.sample_colorings": "oracle.sample_s",
    "overfull.is_overfull": "overfull.s",
    "overfull.verify_overfull_implication": "overfull.s",
    "graph.parse_graph6": "graph.parse_s",
    "graph.to_graph6": "graph.parse_s",
}
# Spans counted wherever they open, for the layers that cut across the others.
CROSS_LAYER_OF = {
    "oracle.decide_colorable[find]": "oracle.find_s",
    "oracle.decide_colorable[refute]": "oracle.refute_s",
    "coloring.PartialEdgeColoring.kempe_chain": "coloring.kempe_chain_s",
    "coloring.PartialEdgeColoring.from_assignment": "coloring.from_assignment_s",
}
REQUEST_SPANS = ("census.examine_graph", "bench.decide")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


class Tracer:
    """Records spans for every call into the traced chroma functions."""

    def __init__(self, chroma_package) -> None:
        self._pkg = chroma_package
        self._patches: list[tuple[object, str, object]] = []
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._requests: list[str] = []
        self._request_ids: dict[str, int] = {}
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and counters."""
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self._stack: list[int] = []
        self._current_request = -1
        self.samples = 0
        self.distinct_samples = 0

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._current_request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def request_span(self, name: str, request: str):
        """One client request: a span whose request id is a graph6 line."""
        rid = self._request_ids.setdefault(request, len(self._requests))
        if rid == len(self._requests):
            self._requests.append(request)
        saved = self._current_request
        self._current_request = rid
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self._current_request = saved

    def _wrap(self, qualname: str, func):
        tracer = self
        short = qualname.split(".", 1)[1]  # drop the "chroma." package prefix

        if short == "census.examine_graph":

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                line = str(_arg(args, kwargs, 0, "line")).strip()
                with tracer.request_span(short, line):
                    return func(*args, **kwargs)

        elif short in ("fans.kierstead_paths", "fans.find_forklike"):
            argname = "vertices" if short.endswith("paths") else "kind"

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                idx = tracer._open(f"{short}[{_arg(args, kwargs, 1, argname)}]")
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer._close(idx)

        elif short == "oracle.decide_colorable":

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                idx = tracer._open(short + "[timeout]")
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer._close(idx)
                outcome = "refute" if result is None else "find"
                tracer.name[idx] = tracer._name_id(f"{short}[{outcome}]")
                return result

        elif short == "oracle.sample_colorings":

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                idx = tracer._open(short)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer._close(idx)
                g = _arg(args, kwargs, 0, "g")
                distinct = {tuple(c.color(u, v) for u, v in g.edges) for c in result}
                tracer.samples += len(result)
                tracer.distinct_samples += len(distinct)
                return result

        else:

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                idx = tracer._open(short)
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer._close(idx)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every module attribute that refers to a traced function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = self._pkg
        modules = [getattr(pkg, m) for m in TRACED_MODULES]
        wrappers: dict[int, object] = {}
        for module in modules:
            for name in getattr(module, "__all__", ()):
                func = getattr(module, name, None)
                if inspect.isfunction(func) and id(func) not in wrappers:
                    wrappers[id(func)] = self._wrap(f"{func.__module__}.{name}", func)
        for module in modules + [pkg]:
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrapper)
        cls = pkg.coloring.PartialEdgeColoring
        for meth in TRACED_METHODS:
            raw = cls.__dict__[meth]
            self._patches.append((cls, meth, raw))
            qual = f"chroma.coloring.PartialEdgeColoring.{meth}"
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self._wrap(qual, raw.__func__)))
            else:
                setattr(cls, meth, self._wrap(qual, raw))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> array:
        """Each span's duration minus the union of its children's intervals.

        Children of one parent are recorded in start order, so one pass
        that tracks how far each parent is already covered merges them.
        """
        count = len(self.start)
        covered = array("d", bytes(8 * count))
        covered_until = array("d", bytes(8 * count))
        start, end, parent = self.start, self.end, self.parent
        for i in range(count):
            p = parent[i]
            if p < 0:
                continue
            lo = start[i] if start[i] > covered_until[p] else covered_until[p]
            if end[i] > lo:
                covered[p] += end[i] - lo
                covered_until[p] = end[i]
        return array("d", (end[i] - start[i] - covered[i] for i in range(count)))

    def layer_totals(self) -> dict:
        """Per-layer seconds and counts for the spans recorded since reset."""
        names = self._names
        request_nids = {self._name_ids[n] for n in REQUEST_SPANS if n in self._name_ids}
        selfs = self.self_times()
        seconds: dict[str, float] = {}
        counts: dict[str, int] = {}

        def add(key: str, value: float) -> None:
            seconds[key] = seconds.get(key, 0.0) + value

        for i in range(len(self.start)):
            name = names[self.name[i]]
            duration = self.end[i] - self.start[i]
            counts[name] = counts.get(name, 0) + 1
            p = self.parent[i]
            if self.name[i] in request_nids:
                if name == "census.examine_graph":
                    add("census.self_s", selfs[i])
                continue
            if name in CROSS_LAYER_OF:
                add(CROSS_LAYER_OF[name], duration)
            if p >= 0 and self.name[p] in request_nids:
                if name in SUITE_OF:
                    add(f"suite.{SUITE_OF[name]}.s", duration)
                elif name in TOP_LAYER_OF:
                    add(TOP_LAYER_OF[name], duration)
                else:
                    add("other.s", duration)
        return {"seconds": seconds, "calls": counts}

    def write_spans(self, path) -> int:
        """Write the recorded spans as gzip TSV; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names, requests = self._names, self._requests
        t0 = min(self.start) if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\trequest\tname\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                rid = self.request[i]
                out.write(
                    f"{i}\t{self.parent[i]}\t{requests[rid] if rid >= 0 else ''}\t"
                    f"{names[self.name[i]]}\t{(self.start[i] - t0) * 1e6:.1f}\t"
                    f"{(self.end[i] - t0) * 1e6:.1f}\n"
                )
        return len(self.start)
