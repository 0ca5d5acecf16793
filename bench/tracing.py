"""Outside-in spans around geospectral's public functions.

The tracer replaces module attributes with timing wrappers, so no code in
``src/`` changes.  A function reached through several bindings (for
example ``realdecomp.wedge`` and ``verify.wedge``, both from
``from .geoalg import wedge``) gets the same wrapper at every binding, so
each call records exactly one span.  A traced name that no longer exists
is recorded as absent instead of raising, so the benchmark keeps running
across refactors that delete or rename a function.
"""

import functools
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "geospectral"

class Tracer:
    """Records spans while installed; ``with Tracer(names) as tr:`` patches the
    package and restores every original binding on exit."""

    def __init__(self, names):
        self.names = tuple(names)
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.absent = []
        self.op = None
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def __enter__(self):
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name in self.names:
            home, _, attr = name.rpartition(".")
            home_mod = sys.modules.get(f"{PACKAGE}.{home}")
            original = getattr(home_mod, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper


def summarize(spans, op_ids):
    """Per-name totals over the spans of the given operations.

    Returns {name: {"calls", "busy_s", "self_s"}}; self time is busy time
    minus the time covered by direct child spans.
    """
    keep = set(op_ids)
    child_time = defaultdict(float)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _, op) in enumerate(spans):
        if op in keep:
            entry = out[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += (end - start) - child_time[i]
    return out


def count_under(spans, op_ids, name, ancestor):
    """Number of ``name`` spans with an ``ancestor`` span above them."""
    keep = set(op_ids)
    count = 0
    for span in spans:
        if span[0] != name or span[4] not in keep:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        count += parent >= 0
    return count
