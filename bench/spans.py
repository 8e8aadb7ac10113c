"""Spans around the calls into heislab's layers, recorded from outside the program.

A :class:`Tracer` replaces every module attribute that binds a measured
function with a wrapper that records one span per call: name, parent span,
start and end.  ``heislab.cli`` and ``heislab.variational`` import their
callees by name and ``p_sublaplacian`` reaches ``horizontal_gradient``
through ``heislab.operators``, so each binding is replaced, not only the
defining one.  SciPy's entry points are replaced where ``heislab.spectral``
looks them up.  Spans stay in memory; nothing is recorded outside
:meth:`Tracer.installed`.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from importlib import import_module

# span name -> (defining module, attribute)
MEASURED = {
    "cli.run": ("heislab.cli", "run"),
    "spectral.assemble_twisted": ("heislab.spectral", "assemble_twisted"),
    "spectral.lowest_eigenvalues": ("heislab.spectral", "lowest_eigenvalues"),
    "spectral.landau_structure_fit": ("heislab.spectral", "landau_structure_fit"),
    "spectral.eigenfunction_residual": ("heislab.spectral", "eigenfunction_residual"),
    "spectral.dense_eigh": ("scipy.linalg", "eigh"),
    "spectral.sparse_lu": ("scipy.sparse.linalg", "splu"),
    "spectral.lanczos": ("scipy.sparse.linalg", "eigsh"),
    "hermite.fourier_wigner_table": ("heislab.hermite", "fourier_wigner_table"),
    "variational.energy": ("heislab.variational", "energy"),
    "variational.gradient": ("heislab.variational", "gradient"),
    "variational.folland_stein_constant": ("heislab.variational", "folland_stein_constant"),
    "variational.ray_scan": ("heislab.variational", "ray_scan"),
    "variational.mountain_pass_solve": ("heislab.variational", "mountain_pass_solve"),
    "operators.horizontal_gradient": ("heislab.operators", "horizontal_gradient"),
    "operators.p_sublaplacian": ("heislab.operators", "p_sublaplacian"),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []
        self._open: list[int] = []

    def _wrap(self, name, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx] = (name, parent, start, end)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding of the measured functions; restore them on exit."""
        wrappers = {}
        for name, (module, attr) in MEASURED.items():
            fn = getattr(import_module(module), attr)
            wrappers[id(fn)] = self._wrap(name, fn)
        homes = {module for module, _ in MEASURED.values()}
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "heislab" or key.startswith("heislab.") or key in homes)
        ]
        replaced = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    replaced.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in replaced:
                setattr(mod, attr, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in MEASURED}
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, _, start, end), inner in zip(self.spans, child_time):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "parent", "start", "end"], "spans": self.spans}, fh)
