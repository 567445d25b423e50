"""Spans around the public functions of the ydde modules, recorded from outside.

``instrument`` swaps each traced function for a wrapper wherever the
package holds a reference to it: the defining module, every module that
bound it with ``from .x import f`` (``sensitivity.picard_solve``), and
module-level tables such as the CLI's command map.  Leaving the context
restores every reference, so untraced operations run the original code.
"""

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function, layer name).  A layer's self time is its span minus
# the spans of traced functions it calls, e.g. picard_solve without
# greedy_partition.
LAYERS = (
    ("drivers", "gen_driver", "drivers.gen_driver"),
    ("solver", "picard_solve", "solver.picard_solve"),
    ("solver", "greedy_partition", "solver.greedy_partition"),
    ("solver", "euler_solve", "solver.euler_solve"),
    ("solver", "growth_bound_check", "solver.growth_bound_check"),
    ("solver", "uniqueness_probe", "solver.uniqueness_probe"),
    ("paths", "segment_norm_profile", "paths.segment_norm_profile"),
    ("paths", "holder_seminorm", "paths.holder_seminorm"),
    ("paths", "pvar_seminorm", "paths.pvar_seminorm"),
    ("paths", "segment_path_holder", "paths.segment_path_holder"),
    ("young", "certificate_sweep", "young.certificate_sweep"),
    ("coefficients", "verify_regularity", "coefficients.verify_regularity"),
    ("coefficients", "composition_path", "coefficients.composition_path"),
    ("sensitivity", "continuity_check", "sensitivity.continuity_check"),
    ("sensitivity", "differentiability_check",
     "sensitivity.differentiability_check"),
    ("sensitivity", "linearized_solve", "sensitivity.linearized_solve"),
    ("cli", "load_scenario", "cli.load_scenario"),
    ("cli", "cmd_verify", "cli.verify_self"),
)


def _solve_counts(report):
    return {"solver.picard_iterations": sum(report.window_iterations),
            "solver.windows": len(report.windows),
            "solver.split_windows": sum(w.split for w in report.windows)}


# Exact counts read from a layer's return value.
COUNTERS = {
    "solver.picard_solve": _solve_counts,
    "young.certificate_sweep": lambda sweep: {
        "young.windows_checked": sweep.n_windows},
}


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, root index]``."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self.spans[parent][4] if parent is not None else index
        self.spans.append([name, time.perf_counter(), None, parent, root])
        self._stack.append(index)
        return index

    def _close(self, index):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.counts.update(counter(result))
            return result
        return traced

    def self_times(self, roots):
        """Per layer: (self seconds, calls) summed over spans under ``roots``."""
        roots = set(roots)
        child_time = defaultdict(float)
        for name, start, end, parent, root in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0])
        for index, (name, start, end, parent, root) in enumerate(self.spans):
            if root in roots and parent is not None:
                totals[name][0] += end - start - child_time[index]
                totals[name][1] += 1
        return {name: tuple(v) for name, v in totals.items()}

    def dump(self):
        """Spans as JSON-ready rows, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": name, "start": start - t0, "end": end - t0,
                 "parent": parent, "root": root}
                for name, start, end, parent, root in self.spans]


def _namespaces(package):
    """Every module dict of the package, plus the module-level dicts in them."""
    modules = [package] + [v for v in vars(package).values()
                           if getattr(v, "__name__", "").startswith(
                               package.__name__ + ".")
                           and hasattr(v, "__file__")]
    spaces = [vars(m) for m in modules]
    spaces += [v for m in modules for k, v in vars(m).items()
               if isinstance(v, dict) and not k.startswith("__")]
    return spaces


@contextmanager
def instrument(tracer, package):
    """Route every reference to each layer function through ``tracer``."""
    patched = []
    try:
        for module, func, name in LAYERS:
            original = getattr(getattr(package, module), func)
            wrapper = tracer.wrap(name, original, COUNTERS.get(name))
            for space in _namespaces(package):
                for key, value in list(space.items()):
                    if value is original:
                        space[key] = wrapper
                        patched.append((space, key, original))
        yield tracer
    finally:
        for space, key, original in reversed(patched):
            space[key] = original
