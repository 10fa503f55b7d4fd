"""Spans around calls into pointdyn's public functions, for the traced run.

Wrappers are installed on every module attribute (and module-level dict
value) that holds a traced function, because pointdyn modules import
names directly: ``pointdyn.expansivity.pair_sup_separation`` is patched
as well as ``pointdyn.systems.pair_sup_separation``, and the variant
table in ``expansivity`` as well as the functions it lists.

Each span records its name, start, end and parent. Calls are
synchronous and single-threaded, so spans nest and a span's self time
is its duration minus the durations of its direct children. Spans stay
in memory (up to ``max_spans``; later ones are still counted in the
aggregates) and are written out at the end.
"""

import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# (module, function, counter read from the public return value)
TARGETS = (
    ("systems", "pair_sup_separation", None),
    ("systems", "materialize", None),
    ("systems", "c0_distance", None),
    ("systems", "system_ball", None),
    ("systems", "orbit_closure", None),
    ("expansivity", "classify_points", None),
    ("expansivity", "expansive_point_at", None),
    ("expansivity", "uniformly_expansive_at", None),
    ("expansivity", "minimally_expansive_at", None),
    ("expansivity", "is_expansive_on", None),
    ("shadowing", "shadowable_exact", None),
    ("shadowing", "shadowable_windowed",
     ("shadowing.windows_checked", lambda r: r.windows_checked)),
    ("shadowing", "trace", None),
    ("shadowing", "count_pseudo_orbits", None),
    ("stability", "build_conjugacy",
     ("stability.conjugacy_success", lambda r: int(bool(r.success)))),
    ("stability", "verify_topologically_stable_point", None),
    ("stability", "enumerate_perturbations",
     ("stability.perturbations", len)),
    ("stability", "gh_distance_bounds",
     ("stability.gh_complete", lambda r: int(bool(r.complete)))),
    ("stability", "find_exact_isomorphism", None),
    ("stability", "first_delta_isometry_pair", None),
    ("measures", "build_tracking_map", None),
    ("measures", "tracking_commutes", None),
    ("measures", "verify_strong_mu_topological_stability", None),
    ("cli", "main", None),
    ("sysfile", "load_file", None),
    ("bundled", "bundled_system", None),
    ("report", "assemble", None),
    ("report", "render", None),
)

COUNTERS = tuple(obs[0] for _m, _f, obs in TARGETS if obs)


def span_names():
    return [f"{mod}.{fn}" for mod, fn, _ in TARGETS]


class Tracer:
    def __init__(self, max_spans=200_000):
        self.max_spans = max_spans
        self.names = []
        self.name_id = {}
        self.sp_name = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("i")
        self.dropped = 0
        # open spans: [span index or -1, start, time covered by children]
        self.stack = []
        self.calls, self.total, self.self_time = {}, {}, {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.patches = []               # (namespace or dict, key, original)

    def _id(self, name):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.total[name] = 0.0
            self.self_time[name] = 0.0
        return self.name_id[name]

    def _open(self, name):
        nid = self._id(name)
        start = perf_counter()
        idx = -1
        if len(self.sp_name) < self.max_spans:
            idx = len(self.sp_name)
            self.sp_name.append(nid)
            self.sp_start.append(start)
            self.sp_end.append(start)
            self.sp_parent.append(self.stack[-1][0] if self.stack else -1)
        else:
            self.dropped += 1
        self.stack.append([idx, start, 0.0])

    def _close(self, name):
        end = perf_counter()
        idx, start, children = self.stack.pop()
        dur = end - start
        if idx >= 0:
            self.sp_end[idx] = end
        if self.stack:
            self.stack[-1][2] += dur
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - children

    @contextmanager
    def span(self, name):
        """Root span around one job."""
        self._open(name)
        try:
            yield
        finally:
            self._close(name)

    def wrap(self, name, fn, observe):
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name)
            if observe is not None:
                counter, amount = observe
                self.counters[counter] += amount(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Patch every pointdyn binding of each target with its wrapper."""
        for mod, _fn, _obs in TARGETS:
            importlib.import_module(f"pointdyn.{mod}")
        modules = [m for n, m in sys.modules.items()
                   if n == "pointdyn" or n.startswith("pointdyn.")]
        for mod, fn, observe in TARGETS:
            orig = getattr(sys.modules[f"pointdyn.{mod}"], fn)
            traced = self.wrap(f"{mod}.{fn}", orig, observe)
            for m in modules:
                namespace = vars(m)
                for attr, value in list(namespace.items()):
                    if value is orig:
                        self.patches.append((namespace, attr, orig))
                        namespace[attr] = traced
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is orig:
                                self.patches.append((value, k, orig))
                                value[k] = traced

    def uninstall(self):
        for container, key, orig in reversed(self.patches):
            container[key] = orig
        self.patches = []

    def adopt(self, spans, agg, dropped):
        """Merge a child process's spans (under the open span) and totals.

        perf_counter reads the system-wide monotonic clock, so the
        child's timestamps share this process's time base.
        """
        parent = self.stack[-1][0] if self.stack else -1
        base = len(self.sp_name)
        for name, start, end, p in spans:
            if len(self.sp_name) >= self.max_spans:
                self.dropped += 1
                continue
            self.sp_name.append(self._id(name))
            self.sp_start.append(start)
            self.sp_end.append(end)
            self.sp_parent.append(base + p if p >= 0 else parent)
        self.dropped += dropped
        for name, calls in agg["calls"].items():
            self._id(name)
            self.calls[name] += calls
            self.total[name] += agg["total"][name]
            self.self_time[name] += agg["self"][name]
        for counter, value in agg["counters"].items():
            self.counters[counter] += value

    def aggregates(self):
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "counters": dict(self.counters)}

    def spans(self):
        """(name, start, end, parent index) per recorded span."""
        return [(self.names[self.sp_name[i]], self.sp_start[i],
                 self.sp_end[i], self.sp_parent[i])
                for i in range(len(self.sp_name))]


def write_spans(path, spans, dropped):
    with open(path, "w") as fh:
        fh.write(f"# spans={len(spans)} dropped={dropped}\n")
        fh.write("index\tname\tstart_s\tend_s\tparent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
