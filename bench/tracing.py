"""In-memory spans around the public functions of nitsche_lab.

A :class:`Tracer` records one span per call: name, start, end, parent and a
few attributes.  :func:`instrument` replaces each traced function by a
wrapper in every namespace that holds it (the defining module, the modules
that imported it by name, and the package), plus SciPy's ``cg`` entry point
that the capacity solver calls, and returns a function that restores the
originals.  Spans carry ``time.perf_counter`` stamps, which on Linux read
CLOCK_MONOTONIC and so line up across processes: spans recorded in a CLI
child process nest under the parent's span for that process.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one process, kept in memory in the order they were opened."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), parent=parent, attrs=dict(attrs))
        self.spans.append(rec)
        self._stack.append(index)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def adopt(self, records: list[dict], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for r in records:
            p = parent if r["parent"] is None else base + r["parent"]
            self.spans.append(Span(r["name"], r["start"], r["end"], p, r["attrs"]))

    def to_records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "attrs": s.attrs} for s in self.spans]


def _shoot_attrs(bound: inspect.BoundArguments, _result) -> dict:
    args = bound.arguments
    return {"rk4_steps": args["n_steps"] * (3 if args["richardson"] else 1)}


# (module, attribute, span name, attribute hook).  Class methods are given
# as "Class.method".
TRACED = (
    ("nitsche_lab.metrics", "load_metric", "metrics.load_metric", None),
    ("nitsche_lab.radial", "shoot", "radial.shoot", _shoot_attrs),
    ("nitsche_lab.radial", "critical_modulus", "radial.critical_modulus", None),
    ("nitsche_lab.radial", "solve_bvp", "radial.solve_bvp", None),
    ("nitsche_lab.grid", "AnnulusMap.diagnostics", "grid.diagnostics", None),
    ("nitsche_lab.pde", "solve_dirichlet", "pde.solve_dirichlet", None),
    ("nitsche_lab.pde", "residual_norm", "pde.residual_norm", None),
    ("nitsche_lab.pde", "laplacian_bound_check", "pde.laplacian_bound_check", None),
    ("nitsche_lab.pde", "green_chain", "pde.green_chain", None),
    ("nitsche_lab.modulus", "modulus_capacity", "modulus.modulus_capacity", None),
    ("nitsche_lab.modulus", "masked_geodesic_annulus", "modulus.masked_geodesic_annulus", None),
    ("nitsche_lab.modulus", "angular_energy", "modulus.angular_energy", None),
    ("nitsche_lab.weierstrass", "surface_metric", "weierstrass.surface_metric", None),
    ("nitsche_lab.weierstrass", "corollary_check", "weierstrass.corollary_check", None),
    ("nitsche_lab.comparison", "osserman_check", "comparison.osserman_check", None),
    ("nitsche_lab.comparison", "hessian_check", "comparison.hessian_check", None),
    ("nitsche_lab.report", "check_bound", "report.check_bound", None),
    ("nitsche_lab.report", "verify_end_to_end", "report.verify_end_to_end", None),
)


def _wrap(tracer: Tracer, fn, name: str, hook):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            result = fn(*args, **kwargs)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec.attrs.update(hook(bound, result))
            return result

    return wrapper


def _wrap_cg(tracer: Tracer, fn):
    """cg with an iteration-counting callback chained in front of any given one."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        user_cb = kwargs.get("callback")
        with tracer.span("modulus.cg") as rec:
            count = [0]

            def callback(xk):
                count[0] += 1
                if user_cb is not None:
                    user_cb(xk)

            kwargs["callback"] = callback
            result = fn(*args, **kwargs)
            rec.attrs["iterations"] = count[0]
            return result

    return wrapper


def _namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nitsche_lab" or name.startswith("nitsche_lab."))]


def instrument(tracer: Tracer):
    """Install span wrappers; returns a function that removes them."""
    undo = []

    def replace_everywhere(orig, new, home):
        for ns in _namespaces() + [home]:
            for attr, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, attr, new)
                    undo.append((ns, attr, orig))

    for module_name, attr, span_name, hook in TRACED:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = vars(cls)[meth]
            setattr(cls, meth, _wrap(tracer, orig, span_name, hook))
            undo.append((cls, meth, orig))
        else:
            orig = getattr(module, attr)
            replace_everywhere(orig, _wrap(tracer, orig, span_name, hook), module)
    linalg = sys.modules["scipy.sparse.linalg"]
    orig_cg = linalg.cg
    replace_everywhere(orig_cg, _wrap_cg(tracer, orig_cg), linalg)

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


def layer_metrics(spans: list[Span], rounds: int, wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer figures from the spans of ``rounds`` traced rounds.

    Times and counts are per round.  ``radial.shoots_per_solve`` and
    ``trace.overhead_ratio`` are ratios; ``cli.import_s`` is per CLI process.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)

    def self_time(i):
        return spans[i].duration - sum(spans[c].duration for c in children.get(i, ()))

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def total(name):
        return sum(spans[i].duration for i in named(name))

    def descendants(i, name):
        out, todo = [], list(children.get(i, ()))
        while todo:
            c = todo.pop()
            if spans[c].name == name:
                out.append(c)
            todo.extend(children.get(c, ()))
        return out

    shoots = named("radial.shoot")
    solves = named("radial.critical_modulus") + named("radial.solve_bvp")
    solver_shoots = sum(len(descendants(i, "radial.shoot")) for i in solves)
    cgs = named("modulus.cg")
    imports = named("cli.import")
    per = 1.0 / rounds

    values = {
        "radial.critical_modulus.s": (total("radial.critical_modulus") * per, "s"),
        "radial.shoot.calls": (len(shoots) * per, "count"),
        "radial.rk4_steps": (sum(spans[i].attrs["rk4_steps"] for i in shoots) * per, "count"),
        "radial.shoots_per_solve": (solver_shoots / len(solves) if solves else 0.0, "ratio"),
        "radial.solve_bvp.s": (total("radial.solve_bvp") * per, "s"),
        "pde.solve_dirichlet.s": (total("pde.solve_dirichlet") * per, "s"),
        "pde.residual_norm.s": (total("pde.residual_norm") * per, "s"),
        "pde.laplacian_bound_check.s": (total("pde.laplacian_bound_check") * per, "s"),
        "pde.green_chain.s": (total("pde.green_chain") * per, "s"),
        "pde.green_chain.calls": (len(named("pde.green_chain")) * per, "count"),
        "grid.diagnostics.s": (total("grid.diagnostics") * per, "s"),
        "modulus.angular_energy.s": (total("modulus.angular_energy") * per, "s"),
        "modulus.modulus_capacity.s": (total("modulus.modulus_capacity") * per, "s"),
        "modulus.cg.calls": (len(cgs) * per, "count"),
        "modulus.cg.iterations": (sum(spans[i].attrs["iterations"] for i in cgs) * per, "count"),
        "modulus.cg.s": (total("modulus.cg") * per, "s"),
        "modulus.masked_geodesic_annulus.s": (total("modulus.masked_geodesic_annulus") * per, "s"),
        "weierstrass.surface_metric.calls": (len(named("weierstrass.surface_metric")) * per, "count"),
        "weierstrass.surface_metric.s": (total("weierstrass.surface_metric") * per, "s"),
        "report.verify_end_to_end.self_s": (sum(self_time(i) for i in
                                                named("report.verify_end_to_end")) * per, "s"),
        "metrics.load_metric.s": (total("metrics.load_metric") * per, "s"),
        "comparison.s": ((total("comparison.osserman_check")
                          + total("comparison.hessian_check")) * per, "s"),
        "cli.import_s": (total("cli.import") / len(imports) if imports else 0.0, "s"),
        "cli.main.self_s": (sum(self_time(i) for i in named("cli.main")) * per, "s"),
        "trace.wall_s": (wall_s * per, "s"),
        "trace.self_sum_s": (sum(self_time(i) for i in range(len(spans))) * per, "s"),
        "trace.overhead_ratio": (wall_s / untraced_wall_s - 1.0, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
