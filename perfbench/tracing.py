"""Span tracing of the program from outside it.

``Tracer.install`` replaces every public function of the ``cropyield``
modules, and the public methods of their classes, with a wrapper that
records one span per call: name, start, end and the index of the enclosing
span. A function that a module imports by name (``synthdata`` imports
``fnv1a64`` from ``fileio``) is wrapped at that lookup site too, under its
home module's name, so every call is seen whichever module makes it.
Functions held in tables (``pipeline._RUNNERS``) are wrapped in the table.

Spans live in flat arrays in memory; ``write`` saves them when the run ends.
Hooks add counts measured at the same boundaries: bytes hashed or written,
convolution FLOPs and bytes computed from shapes, distinct EO masks, and
loss ratios read from the values a training function returns.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

STAGE_PREFIX = "pipeline.stage."


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, list] = defaultdict(list)
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, after=None, namer=None):
        """Return ``fn`` recording a span per call; ``after(args, kwargs, out)``
        may return a replacement result, ``namer(args, kwargs)`` a span name."""
        fixed = self._id(name)
        stack, ids, start, end = self._stack, self.name_id, self.start, self.end
        parent = self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            ids.append(self._id(namer(args, kwargs)) if namer else fixed)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if after is not None:
                replaced = after(args, kwargs, out)
                if replaced is not None:
                    return replaced
            return out

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- installation ----------------------------------------------------

    def install(self, modules: dict, hooks: dict, namers: dict, tables) -> None:
        """Wrap the public functions and methods of ``modules`` (short name ->
        module). ``hooks`` and ``namers`` are keyed by span name; ``tables``
        lists (dict, key, span name) entries to wrap in place."""
        home = {m.__name__: short for short, m in modules.items()}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ in home:
                    name = f"{home[obj.__module__]}.{obj.__name__}"
                    self._patch(mod, attr, self.wrap(obj, name, hooks.get(name), namers.get(name)))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(obj, f"{short}.{obj.__name__}", hooks)
        for table, key, name in tables:
            original = table[key]
            self._patches.append((table, key, original))
            table[key] = self.wrap(original, name, hooks.get(name))

    def _install_class(self, cls, prefix: str, hooks: dict) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, type(obj)(self.wrap(obj.__func__, name, hooks.get(name))))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self.wrap(obj, name, hooks.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        return name_id, parent, start, end

    def per_name(self) -> dict:
        """name -> {calls, s (inclusive), self_s}; self time is the span's
        duration minus the part its direct children cover."""
        name_id, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(name_id, minlength=n)
        total = np.bincount(name_id, weights=dur, minlength=n)
        own = np.bincount(name_id, weights=dur - child, minlength=n)
        return {name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def per_stage(self, name: str) -> dict:
        """Calls and seconds of spans called ``name`` inside each pipeline stage span."""
        name_id, _, start, end = self.arrays()
        out = {}
        if name not in self._ids:
            return out
        mine = name_id == self._ids[name]
        for stage, sid in self._ids.items():
            if not stage.startswith(STAGE_PREFIX):
                continue
            sel = name_id == sid
            inside = np.zeros_like(mine)
            for s0, s1 in zip(start[sel], end[sel]):
                inside |= (start >= s0) & (end <= s1)
            hit = mine & inside
            out[stage[len(STAGE_PREFIX):]] = {
                "calls": int(hit.sum()), "s": float((end[hit] - start[hit]).sum())}
        return out

    def write(self, out_dir, summary: dict) -> None:
        """Save every span and the summary; spans.npz rows share one index."""
        os.makedirs(out_dir, exist_ok=True)
        name_id, parent, start, end = self.arrays()
        t0 = float(start.min()) if start.size else 0.0
        np.savez_compressed(os.path.join(out_dir, "spans.npz"), names=np.array(self.names),
                            name_id=name_id, parent=parent, start=start - t0, end=end - t0)
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
