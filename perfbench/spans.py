"""In-memory span tracer that wraps public p3pshare functions from outside.

The library binds many functions by ``from .x import y``, so wrapping a
function means replacing every module attribute in the ``p3pshare``
package that holds the original object. ``Tracer.install`` does that and
``Tracer.uninstall`` puts the originals back.

A span is (name, start, end, parent, op). Spans nest strictly because the
code is single-threaded, so a span's self time is its duration minus the
summed durations of its direct children. Totals are aggregated as spans
close; the full span records are kept only for the first ``keep_spans``
spans so that memory stays bounded on long runs.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs the tracer wraps; a name that no longer exists
# is reported as absent instead of raising.
WRAPPED = (
    ("conics", "build_conics"),
    ("conics", "intersect_conics"),
    ("conics", "resultant_in_u"),
    ("conics", "newton_polish"),
    ("solver", "solve"),
    ("solver", "triplet_from_ratio"),
    ("solver", "recover_centers"),
    ("sharing", "classify_solution_set"),
    ("sharing", "sharing_residual"),
    ("sharing", "companion_check"),
    ("sceneio", "parse_scene"),
    ("geometry", "view_angles_from_center"),
    ("scenes", "random_scene"),
    ("scenes", "brute_force_solutions"),
    ("scenes", "verify_theorem"),
    ("loci", "sample_locus"),
    ("loci", "cylinder_membership"),
    ("loci", "plane_membership"),
    ("loci", "skewed_membership"),
    ("loci", "skew_mesh"),
)

ROOT = "op"


def _observe(counts: Counter, name: str, parent: str, out) -> None:
    """Counts taken from return values at the layer boundary."""
    if name == "conics.intersect_conics":
        points = getattr(out, "points", ())
        counts["points"] += len(points)
        counts["multiplicity2"] += sum(
            1 for p in points if getattr(p, "multiplicity", 1) >= 2)
        if parent == "solver.solve":
            counts["points_in_solve"] += len(points)
    elif name == "solver.solve":
        sols = getattr(out, "solutions", ())
        counts["solutions"] += len(sols)
        counts["repeated"] += sum(1 for s in sols if getattr(s, "repeated", False))
    elif name == "sharing.classify_solution_set" \
            and parent != "sharing.companion_check":
        counts["pairs"] += len(getattr(out, "pairs", ()))
    elif name == "loci.skew_mesh" and isinstance(out, tuple) and len(out) == 2:
        counts["mesh_vertices"] += len(out[0])
        counts["mesh_faces"] += len(out[1])


class Tracer:
    def __init__(self, keep_spans: int = 20000):
        self.keep_spans = keep_spans
        self.active = False
        self.op = 0
        self.context = None          # campaign id while a campaign runs
        self._stack: list[list] = []  # [name, start, child_time, span_index]
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.edge_calls: Counter = Counter()     # (parent, name) -> calls
        self.in_context: defaultdict = defaultdict(float)  # (ctx, name) -> s
        self.counts: Counter = Counter()
        self.n_spans = 0
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._patches: list[tuple] = []

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        import p3pshare
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "p3pshare" or k.startswith("p3pshare."))]
        for modname, fname in WRAPPED:
            mod = getattr(p3pshare, modname, None)
            fn = getattr(mod, fname, None) if mod is not None else None
            name = f"{modname}.{fname}"
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        self._patches.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0]
            frame = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, parent)
            _observe(tracer.counts, name, parent, out)
            return out
        return wrapper

    # -- spans ------------------------------------------------------------
    def _enter(self, name: str) -> list:
        idx = -1
        if len(self.spans) < self.keep_spans:
            parent_idx = self._stack[-1][3] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent_idx, self.op])
        frame = [name, time.perf_counter(), 0.0, idx]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, parent: str | None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, idx = frame
        dur = end - start
        self.n_spans += 1
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if parent is not None:
            self.edge_calls[(parent, name)] += 1
        if self.context is not None:
            self.in_context[(self.context, name)] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def begin_op(self) -> None:
        """Open the root span of one benchmark op and switch recording on."""
        self.active = True
        self._root = self._enter(ROOT)

    def end_op(self) -> None:
        self._exit(self._root, None)
        self.active = False
        self.op += 1

    def snapshot(self) -> dict:
        """Call counts and derived counts so far, for per-pass comparison."""
        return {"calls": dict(self.calls), "counts": dict(self.counts)}
