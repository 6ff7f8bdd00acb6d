"""Span tracing of gaborkit from outside the package.

Every public function of every gaborkit module is wrapped under each name by
which a module of the package refers to it (``gaborkit.zak.envelope`` and
``gaborkit.windows.envelope`` get separate wrappers around the same
function), so a span knows both the function it times and the module that
called it.  The wrapped object is the module's own, so ``lru_cache``
functions keep their caching.

Spans are kept in memory as flat arrays (name id, caller module id, start,
end, parent span, job id) and written once, when the run ends.
"""

import functools
import importlib
import json
import time
from array import array

import numpy as np

LAYERS = ("special", "operators", "windows", "lattices", "zak", "frames", "cli")


def _public_functions(module):
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """Installs span-recording wrappers and collects the spans of a run."""

    def __init__(self):
        self.names = []            # "zak.zak_point"
        self.vias = []             # calling module, e.g. "frames"
        self._name_ids = {}
        self._via_ids = {}
        self.name_id = array("i")
        self.via_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self._stack = []
        self.job_id = -1
        self._installed = []

    def _intern(self, table, ids, key):
        if key not in ids:
            ids[key] = len(table)
            table.append(key)
        return ids[key]

    def _wrap(self, func, qualname, via):
        nid = self._intern(self.names, self._name_ids, qualname)
        vid = self._intern(self.vias, self._via_ids, via)
        stack = self._stack
        clock = time.perf_counter
        name_id, via_id, start, end = self.name_id, self.via_id, self.start, self.end
        parent, job = self.parent, self.job

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            via_id.append(vid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every public function under every module-level name bound to it."""
        modules = {layer: importlib.import_module(f"gaborkit.{layer}")
                   for layer in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            for name, func in _public_functions(mod).items():
                originals[id(func)] = (func, f"{layer}.{name}")
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is None:
                    continue
                func, qualname = hit
                setattr(mod, attr, self._wrap(func, qualname, layer))
                self._installed.append((mod, attr, func))

    def uninstall(self):
        for mod, attr, func in reversed(self._installed):
            setattr(mod, attr, func)
        self._installed.clear()

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "via_id": np.frombuffer(self.via_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
        }

    def write(self, path):
        """Write all spans to one .npz file, with the name tables as JSON."""
        np.savez_compressed(path, names=np.array(json.dumps(self.names)),
                            vias=np.array(json.dumps(self.vias)), **self.arrays())


def layer_metrics(names, vias, spans, jobs, csv_bytes):
    """Per-job layer metrics from the spans of ``jobs`` traced jobs.

    A span's self time is its duration minus the durations of its direct
    children (calls on one thread nest, so children never overlap).
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    nid = spans["name_id"]
    layer_of = np.array([n.split(".", 1)[0] for n in names])

    def fn_calls(qualname):
        if qualname not in names:
            return 0
        return int(np.count_nonzero(nid == names.index(qualname)))

    def fn_total(values, qualname):
        if qualname not in names:
            return 0.0
        return float(np.sum(values[nid == names.index(qualname)]))

    out = {}
    per_job = 1.0 / jobs
    for qual in ("frames.frame_bounds", "zak.zak_point", "zak.auto_truncation",
                 "zak.zak_surface", "zak.write_surface_csv",
                 "zak.verify_identities", "windows.envelope", "windows.evaluate",
                 "windows.realize", "operators.apply_frft",
                 "operators.apply_tf_shift", "operators.apply_dilation",
                 "operators.upsample", "operators.local_interpolate",
                 "special.hermite", "special.theta3"):
        out[f"{qual}.calls"] = fn_calls(qual) * per_job
        out[f"{qual}.self_s"] = fn_total(self_t, qual) * per_job
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(np.sum(self_t[layer_of[nid] == layer])) * per_job
    # objective evaluations: zak_point calls that frame_bounds or
    # find_zak_zeros make through frames' binding (grid polish and snap)
    searches = [names.index(q) for q in ("frames.frame_bounds", "frames.find_zak_zeros")
                if q in names]
    if "zak.zak_point" in names and "frames" in vias and searches:
        sel = (nid == names.index("zak.zak_point")) & \
              (spans["via_id"] == vias.index("frames")) & has_parent
        sel[sel] = np.isin(nid[parent[sel]], searches)
        out["frames.objective_evals"] = int(np.count_nonzero(sel)) * per_job
    else:
        out["frames.objective_evals"] = 0.0
    writer_s = fn_total(dur, "zak.write_surface_csv")
    out["zak.write_surface_csv.mb_per_s"] = \
        (csv_bytes / 1e6) / writer_s if writer_s > 0 else 0.0
    out["trace.spans"] = len(dur) * per_job
    return out
