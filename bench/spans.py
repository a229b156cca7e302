"""Outside-in tracing of lieforge's layers for the benchmark's traced runs.

`install(tracer)` replaces each public layer function listed in `LAYERS` by a
timing wrapper, at its defining module attribute and at every alias another
lieforge module imported (``from .expr_core import derive`` binds a second
name that must be wrapped too).  `uninstall(patches)` restores the
originals.  The
library itself is not modified on disk and carries no tracing code.

Each call opens a span: name, start, end, parent span and job id.  Spans of
stage functions are kept as records; the hot kernel functions (hundreds of
thousands of calls per job) are rolled up per (parent span, name) into a
call count and a total, so the span file stays small.  Self time is a
call's duration minus the time covered by its child calls, accumulated
exactly for every call whether or not its record is kept.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (module, attribute path) of every traced layer boundary.  Order is the
# order of the per-layer metrics.
LAYERS = [
    ("expr_core", "derive"),
    ("expr_core", "substitute"),
    ("expr_core", "eval_numeric"),
    ("systems", "total_derivative"),
    ("systems", "Reducer.reduce"),
    ("symmetry", "prolong_generator"),
    ("symmetry", "symmetry_residual"),
    ("symmetry", "determining_system"),
    ("symmetry", "discover_symmetries"),
    ("symmetry", "verify_generator"),
    ("symmetry", "field_text"),
    ("linalg", "rref"),
    ("linalg", "nullspace"),
    ("linalg", "solve_exact"),
    ("liealg", "lie_bracket"),
    ("liealg", "in_span"),
    ("liealg", "structure_constants"),
    ("liealg", "jacobi_check"),
    ("liealg", "algebra_signature"),
    ("reduce", "verify_solution"),
    ("reduce", "rk4_from_system"),
    ("reduce", "lift_and_check"),
    ("reduce", "fig1_rows"),
    ("reduce", "fig1_features"),
    ("numerics", "integrate_rk4"),
    ("numerics", "jacobi_sn"),
    ("hierarchy", "hierarchy_member"),
    ("hierarchy", "complex_split"),
    ("hierarchy", "audit_member"),
    ("parser", "expr_text"),
]

# Rolled up per (parent span, name) instead of one record per call.
HOT = {"expr_core.derive", "expr_core.substitute", "expr_core.eval_numeric",
       "systems.total_derivative", "systems.Reducer.reduce",
       "symmetry.field_text", "linalg.rref", "linalg.solve_exact",
       "liealg.lie_bracket", "liealg.in_span", "numerics.jacobi_sn",
       "parser.expr_text"}


def layer_names() -> list[str]:
    """Span names of every traced layer; verify_solution is split by mode."""
    out = []
    for mod, attr in LAYERS:
        name = f"{mod}.{attr}"
        if name == "reduce.verify_solution":
            out += [name + ".symbolic", name + ".numeric"]
        else:
            out.append(name)
    return out


def _verify_mode(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "symbolic")
    return f"reduce.verify_solution.{mode}"


_NAMERS = {"reduce.verify_solution": _verify_mode}


class Tracer:
    """In-memory span recorder with exact per-name call counts, self time
    and outermost inclusive time (recursive calls are not counted twice)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self._depth: list[int] = []
        self._hot: list[bool] = []
        self._stack: list[list] = []
        self.spans: list[tuple] = []
        self.rollups: dict[tuple[int, int], list] = {}
        self.job = -1
        # per job: {name id: outermost inclusive seconds}
        self.job_incl: dict[int, dict[int, float]] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
            self._depth.append(0)
            self._hot.append(name in HOT)
        return nid

    def enter(self, nid: int) -> None:
        stack = self._stack
        parent = stack[-1][4] if stack else -1
        span = -1
        if not self._hot[nid]:
            span = len(self.spans)
            self.spans.append(None)
        self._depth[nid] += 1
        # frame: name id, start, child time, own span, nearest recorded
        # span (self or ancestor), parent recorded span
        stack.append([nid, perf_counter(), 0.0, span,
                      span if span >= 0 else parent, parent])

    def exit(self) -> None:
        end = perf_counter()
        nid, start, child, span, _, parent = self._stack.pop()
        dur = end - start
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        self._depth[nid] -= 1
        if self._depth[nid] == 0:
            self.incl_s[nid] += dur
            per_job = self.job_incl.setdefault(self.job, {})
            per_job[nid] = per_job.get(nid, 0.0) + dur
        if self._stack:
            self._stack[-1][2] += dur
        if span >= 0:
            self.spans[span] = (nid, start, end, parent, self.job)
        elif self._hot[nid]:
            slot = self.rollups.get((parent, nid))
            if slot is None:
                self.rollups[(parent, nid)] = [1, dur]
            else:
                slot[0] += 1
                slot[1] += dur

    def run_job(self, job_id: int, label: str, fn):
        """Run fn() as job `job_id` under a root span named job:<label>."""
        self.job = job_id
        self.enter(self.name_id("job:" + label))
        try:
            return fn()
        finally:
            self.exit()
            self.job = -1

    def stat(self, name: str):
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.self_s[nid], self.incl_s[nid]

    def job_share(self, jobs, part: str, whole: str | None = None) -> float:
        """Outermost inclusive time of `part` over that of `whole` (or of
        the job root spans when None), summed over the given job ids."""
        pid = self._ids.get(part)
        num = den = 0.0
        for j in jobs:
            per = self.job_incl.get(j, {})
            if pid is not None:
                num += per.get(pid, 0.0)
            if whole is None:
                den += sum(v for k, v in per.items()
                           if self.names[k].startswith("job:"))
            else:
                wid = self._ids.get(whole)
                den += per.get(wid, 0.0) if wid is not None else 0.0
        return num / den if den else 0.0

    def write(self, path) -> None:
        """Spans as one JSON document: names, span records
        [name, start, end, parent, job] and hot-call rollups
        [parent span, name, calls, total seconds]."""
        doc = {
            "names": self.names,
            "spans": [list(s) for s in self.spans],
            "rollups": [[p, n, c, t] for (p, n), (c, t) in self.rollups.items()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _wrap(fn, name: str, tracer: Tracer):
    namer = _NAMERS.get(name)
    fixed = tracer.name_id(name) if namer is None else -1
    enter, exit_ = tracer.enter, tracer.exit

    def traced(*args, **kwargs):
        nid = fixed if fixed >= 0 else tracer.name_id(namer(args, kwargs))
        enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every layer in LAYERS, including aliases in other modules.
    Returns the patches for `uninstall`."""
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "lieforge" or n.startswith("lieforge.")) and m is not None]
    patches = []
    for mod_name, attr in LAYERS:
        mod = importlib.import_module(f"lieforge.{mod_name}")
        name = f"{mod_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            orig = owner.__dict__[meth]
            patches.append((owner, meth, orig))
            setattr(owner, meth, _wrap(orig, name, tracer))
            continue
        orig = getattr(mod, attr)
        wrapped = _wrap(orig, name, tracer)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    patches.append((m, key, orig))
                    setattr(m, key, wrapped)
    return patches


def uninstall(patches: list[tuple[object, str, object]]) -> None:
    for owner, key, orig in reversed(patches):
        setattr(owner, key, orig)
