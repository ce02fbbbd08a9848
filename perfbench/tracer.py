"""Span tracer for the benchmark's traced run.

Wrappers are installed on the module attributes through which callers
reach each layer's public functions, so the program itself is not
edited.  A span records (name, start, end, parent, op); spans are kept
in memory and written out when the run ends.  Self time of a span is
its duration minus the durations of its direct children.
"""

import collections
import functools
import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op]
        self._stack = []
        self.op = None           # op id, "input", or None (not recording)
        self.errors = collections.Counter()
        self.counters = collections.Counter()
        self.now = perf_counter    # the run's clock replaces this

    def count(self, name, amount=1):
        if self.op is not None:
            self.counters[name] += amount

    def wrap(self, name, fn, hook=None):
        """Return fn wrapped in a span called name.  hook(tracer, args,
        kwargs, result, exc) runs after the span closes."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, tracer.now(), None, parent, tracer.op]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = tracer.now()
                tracer._stack.pop()
                tracer.errors[name] += 1
                if hook is not None:
                    hook(tracer, args, kwargs, None, exc)
                raise
            span[2] = tracer.now()
            tracer._stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result, None)
            return result

        return traced

    def install(self, name, sites, hook=None):
        """Replace fn at every (module, attribute) site by one wrapper.
        All sites must hold the same function object."""
        mod0, attr0 = sites[0]
        fn = getattr(mod0, attr0)
        traced = self.wrap(name, fn, hook)
        for mod, attr in sites:
            if getattr(mod, attr) is not fn:
                raise RuntimeError("%s.%s is not %s.%s" % (
                    mod.__name__, attr, mod0.__name__, attr0))
            setattr(mod, attr, traced)

    def self_times(self):
        """Per-span self time, in span order."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def by_name(self):
        """name -> (calls, self seconds), over every recorded span."""
        out = {}
        for s, own in zip(self.spans, self.self_times()):
            calls, busy = out.get(s[0], (0, 0.0))
            out[s[0]] = (calls + 1, busy + own)
        return out

    def attributed(self, op_ids):
        """Seconds of the given ops covered by top-level spans."""
        ops = set(op_ids)
        return sum(s[2] - s[1] for s in self.spans
                   if s[3] is None and s[4] in ops)

    def write(self, path):
        with open(path, "w") as fp:
            for name, start, end, parent, op in self.spans:
                json.dump({"name": name, "start": start, "end": end,
                           "parent": parent, "op": op}, fp)
                fp.write("\n")
