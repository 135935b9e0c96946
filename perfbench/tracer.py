"""Span tracer installed from outside the program.

Wraps the public functions listed in ``TARGETS`` by patching every
``qcblowup`` module namespace (and class) that holds the original object,
so calls through names imported with ``from .geometry import integrate``
are seen too.  ``basis_corrections`` is wrapped outside its ``lru_cache``,
whose public ``cache_info()`` supplies the hit and miss counts.

Spans are kept in memory in compact arrays (name, start, end, parent span,
unit id) and written out by :meth:`Tracer.dump`; per-layer metrics are
computed from them by :meth:`Tracer.layer_metrics`; ``Tracer.cache`` holds
the (hits, misses) of the ``basis_corrections`` cache while installed.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (metric prefix, module, attribute, class attribute or None, time kind).
# "self" layers report time minus wrapped children; "incl" layers report
# the whole span (outermost activation only).
TARGETS = (
    ("poly.mul", "qcblowup.poly", "Polynomial", "__mul__", "self"),
    ("poly.add", "qcblowup.poly", "Polynomial", "__add__", "self"),
    ("poly.map_variables", "qcblowup.poly", "Polynomial", "map_variables", "self"),
    ("poly.substitute", "qcblowup.poly", "Polynomial", "substitute", "self"),
    ("poly.parse", "qcblowup.poly", "Polynomial", "parse", "self"),
    ("groebner.normal_form", "qcblowup.groebner", "normal_form", None, "self"),
    ("groebner.buchberger", "qcblowup.groebner", "buchberger", None, "self"),
    ("groebner.ideal_equal", "qcblowup.groebner", "ideal_equal", None, "incl"),
    ("geometry.change_vars", "qcblowup.geometry", "change_vars", None, "self"),
    ("geometry.integrate", "qcblowup.geometry", "integrate", None, "self"),
    ("geometry.pairing_matrix", "qcblowup.geometry", "pairing_matrix", None, "incl"),
    ("geometry.classical_presentation", "qcblowup.geometry", "classical_presentation",
     None, "incl"),
    ("geometry.verify_classical_geometry", "qcblowup.geometry",
     "verify_classical_geometry", None, "incl"),
    ("quantum.basis_corrections", "qcblowup.quantum", "basis_corrections", None, "self"),
    ("quantum.quantum_product", "qcblowup.quantum", "quantum_product", None, "self"),
    ("quantum.gw_invariant", "qcblowup.quantum", "gw_invariant", None, "incl"),
    ("quantum.quantum_presentation", "qcblowup.quantum", "quantum_presentation", None,
     "incl"),
    ("quantum.verify_gw_identities", "qcblowup.quantum", "verify_gw_identities", None,
     "incl"),
    ("quantum.verify_quantum_presentation", "qcblowup.quantum",
     "verify_quantum_presentation", None, "incl"),
    ("cli.main", "qcblowup.cli", "main", None, "incl"),
)

class Tracer:
    """Records one span per call of each target while installed."""

    def __init__(self) -> None:
        self.names = [t[0] for t in TARGETS]
        self.kinds = [t[4] for t in TARGETS]
        self.units = ["-"]
        self.unit = 0
        self.name_of = array("H")
        self.parent = array("i")
        self.unit_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._cache_info = None
        self._cache_at_install = (0, 0)
        self.cache = [0, 0]

    def set_unit(self, label: str) -> None:
        """Attribute the spans that follow to the unit ``label``."""
        self.unit = len(self.units)
        self.units.append(label)

    def _wrap(self, nid: int, func):
        name_of, parent, unit_of = self.name_of, self.parent, self.unit_of
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            unit_of.append(tracer.unit)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Patch every qcblowup namespace holding a target."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            importlib.import_module(target[1])
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qcblowup" or name.startswith("qcblowup.")]
        for nid, (_, modname, attr, member, _) in enumerate(TARGETS):
            owner = getattr(sys.modules[modname], attr) if member else None
            if member:
                raw = owner.__dict__[member]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(nid, raw.__func__))
                else:
                    wrapped = self._wrap(nid, raw)
                for key, value in list(vars(owner).items()):
                    if value is raw:
                        self._patches.append((owner, key, value))
                        setattr(owner, key, wrapped)
                continue
            raw = getattr(sys.modules[modname], attr)
            if attr == "basis_corrections":
                self._cache_info = raw.cache_info
                self._cache_at_install = self._cache_now()
            wrapped = self._wrap(nid, raw)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()
        now = self._cache_now()
        self.cache[0] += now[0] - self._cache_at_install[0]
        self.cache[1] += now[1] - self._cache_at_install[1]

    def _cache_now(self) -> tuple[int, int]:
        if self._cache_info is None:
            return 0, 0
        info = self._cache_info()
        return info.hits, info.misses

    def covered(self) -> float:
        """Seconds covered by root spans (those with no traced parent)."""
        return sum(
            self.end[i] - self.start[i] for i in range(len(self.start)) if self.parent[i] < 0
        )

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self or inclusive seconds per target."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls = [0] * len(self.names)
        secs = [0.0] * len(self.names)
        for i in range(count):
            nid = self.name_of[i]
            calls[nid] += 1
            if self.kinds[nid] == "self":
                secs[nid] += dur[i] - child[i]
            else:
                up = self.parent[i]
                while up >= 0 and self.name_of[up] != nid:
                    up = self.parent[up]
                if up < 0:
                    secs[nid] += dur[i]
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.{self.kinds[nid]}_s"] = secs[nid]
        cli = self.names.index("cli.main")
        out["cli.self_s"] = sum(
            dur[i] - child[i] for i in range(count) if self.name_of[i] == cli
        )
        return out

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then the raw arrays in the
        order name (uint16), parent (int32), unit (int32), start, end
        (float64 seconds on the perf_counter clock)."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "units": self.units, "count": len(self.start),
                      "columns": ["name:H", "parent:i", "unit:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_of, self.parent, self.unit_of, self.start, self.end):
                column.tofile(fh)
