"""Span tracing of headlab's public functions, installed from outside the program.

Every public function defined in one of the traced modules is wrapped, and
every module-level binding of it anywhere in the ``headlab`` package is
replaced by the wrapper (``cli`` imports ``train`` and ``build_counts`` by
name, ``model`` imports ``batch_counts`` by name). Values of module-level
dicts are replaced too, so a dispatch table keeps reaching the wrapper.

Spans are kept in memory as ``(name, start, end, parent, run)`` tuples, with
``parent`` the index of the enclosing span (-1 for none), and written out
when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("corpus", "model", "linalg", "diagnostics", "verify", "cli", "svg")


def _counted_tokens(args, kwargs, result):
    """Tokens in the CountMatrix a counting function returns."""
    for item in result if isinstance(result, tuple) else (result,):
        total = getattr(item, "total", None)
        if isinstance(total, int):
            return total
    return 0


def _train_steps(args, kwargs, result):
    """Optimizer steps asked of one training call, read from its config."""
    for arg in (*args, *kwargs.values()):
        steps = getattr(arg, "steps", None)
        if isinstance(steps, int):
            return steps
    return 0


# Work counts recorded at the boundary of the functions that do the work.
WORK = {
    "corpus.build_counts": _counted_tokens,
    "corpus.batch_counts": _counted_tokens,
    "corpus.counts_for_table": _counted_tokens,
    "model.train": _train_steps,
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans = []
        self.work = {}
        self.run = 0
        self._stack = []

    def wrap(self, name, fn):
        count_work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent, self.run)
            if count_work is not None:
                self.work[name] = self.work.get(name, 0) + count_work(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public function of the traced modules; return their names."""
        wrappers, names = {}, []
        for short in MODULES:
            try:
                mod = importlib.import_module(f"headlab.{short}")
            except ModuleNotFoundError:
                continue  # its functions are reported as absent
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    names.append(f"{short}.{name}")
                    wrappers[id(obj)] = self.wrap(names[-1], obj)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "headlab" or modname.startswith("headlab.")):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            obj[key] = wrappers[id(value)]
        return names


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for sid, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(sid)
    out = []
    for sid, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[sid]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """Per function name: inclusive seconds, self seconds and call count.

    Inclusive seconds count only spans with no ancestor of the same name, so
    a recursive call is not counted twice.
    """
    selfs = self_times(spans)
    out = {}
    for sid, (name, start, end, parent, _) in enumerate(spans):
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["self_s"] += selfs[sid]
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            entry["s"] += end - start
    return out
