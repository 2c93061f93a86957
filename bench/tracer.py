"""Per-layer spans around the calls into each ``lindosc`` module.

The tracer wraps functions from outside the package: it rebinds module
attributes (and one class attribute) to timing wrappers and restores them
on ``uninstall``.  Layers are the package modules, with ``cli`` split at
its own boundaries:

========== =============================================================
config     ``config.load_config``
cli.grid   ``cli._linspace``
cli.cmd    the ``cli.cmd_*`` functions, minus every span below them
cli.render ``cli.CsvTable.render``
cli.emit   ``cli._emit``
core, ...  every function in the module's ``__all__``, wherever the
           package bound it (module attribute or ``from ... import``)
========== =============================================================

A span opens when a wrapped function of layer L is called while the
innermost open span is not L, so nested calls inside one layer are
counted once.  A call into another layer opens that layer's child span.
Self time is a span's duration minus the durations of its child spans, so
the self times of all layers add up to the time covered by the outermost
spans.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

MODULE_LAYERS = ("core", "single_mode", "two_mode", "lyapunov", "separability")
CLI_LAYERS = ("config", "cli.grid", "cli.cmd", "cli.render", "cli.emit")
LAYERS = CLI_LAYERS + MODULE_LAYERS


def _boundaries():
    """(layer, function) for every function the tracer wraps."""
    pkg = sys.modules["lindosc"]
    cli = pkg.cli
    found = [
        ("config", pkg.config.load_config),
        ("cli.grid", cli._linspace),
        ("cli.render", cli.CsvTable.render),
        ("cli.emit", cli._emit),
    ]
    found += [("cli.cmd", fn) for name, fn in vars(cli).items()
              if name.startswith("cmd_") and inspect.isfunction(fn)]
    for layer in MODULE_LAYERS:
        module = getattr(pkg, layer)
        found += [(layer, fn) for fn in (getattr(module, name) for name in module.__all__)
                  if inspect.isfunction(fn)]
    return found


def _render_values(args):
    table = args[0]
    return len(table.rows) * len(table.columns)


def _emit_bytes(args):
    text = args[0]
    return len(text) if text.isascii() else len(text.encode())


_COUNTERS = {"cli.render": _render_values, "cli.emit": _emit_bytes}


class Tracer:
    """Spans of one traced run, kept in memory until :meth:`spans_json`."""

    def __init__(self):
        self.index = {name: i for i, name in enumerate(LAYERS)}
        self._patches = []
        self._stack = []
        self.reset()

    def reset(self):
        n = len(LAYERS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.work = [0] * n
        #: (layer index, parent span or -1, start, end), in order of opening.
        self.spans = []
        self._stack.clear()

    def _wrap(self, layer: str, fn):
        lid = self.index[layer]
        counter = _COUNTERS.get(layer)
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == lid:
                return fn(*args, **kwargs)
            if counter is not None:
                self.work[lid] += counter(args)
            spans = self.spans
            frame = [lid, 0.0, len(spans)]
            parent = stack[-1][2] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                self.calls[lid] += 1
                self.self_s[lid] += elapsed - frame[1]
                spans[frame[2]] = (lid, parent, start, end)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every boundary function, wherever the package bound it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, fn in _boundaries():
            wrappers.setdefault(id(fn), (fn, self._wrap(layer, fn)))
        owners = [m for n, m in sys.modules.items() if n == "lindosc" or n.startswith("lindosc.")]
        owners.append(sys.modules["lindosc.cli"].CsvTable)
        for owner in owners:
            for name, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((owner, name, value))
                    setattr(owner, name, hit[1])

    def uninstall(self):
        while self._patches:
            owner, name, fn = self._patches.pop()
            setattr(owner, name, fn)

    def totals(self) -> dict:
        """Per-layer calls, self time and work counts of the spans so far."""
        return {name: {"calls": self.calls[i], "self_s": self.self_s[i], "work": self.work[i]}
                for name, i in self.index.items()}

    def spans_json(self):
        """Spans as JSON-ready dicts, times relative to the first span."""
        if not self.spans:
            return []
        origin = self.spans[0][2]
        return [{"id": k, "layer": LAYERS[lid], "parent": parent,
                 "start_s": start - origin, "end_s": end - origin}
                for k, (lid, parent, start, end) in enumerate(self.spans)]
