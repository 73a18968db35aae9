"""Spans around softcone's public entry points, recorded from outside.

`install` rebinds each traced function in every softcone module that holds
it (and patches methods on their classes), so `src/` stays untouched.  Spans
are kept in memory as [name, parent index, start, end, attributes] and
written out by the workload process when it ends; `layer_metrics` turns one
process's spans into the per-layer figures.
"""
from __future__ import annotations

import dataclasses
import functools
import time

PROFILE_LABELS = ("v_limit", "v_sigma", "v_hat")
STUDIES = ("ir-divergence", "superselection-slope", "difference-norm", "huyghens",
           "limit-T", "weyl-laws", "locality", "wave-appendix")


def wavefunction_kind(label: str) -> str:
    if label in PROFILE_LABELS or label.startswith("v_hat_T"):
        return "profile"
    if label == "local-field":
        return "local"
    return "composite"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {"photon.leaf_evals": 0}
        self._stack = []

    def wrap(self, name, fn, after=None):
        """fn with a span per call; `name` may be a function of the arguments,
        `after(result, *args, **kwargs)` returns the span's attributes."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            rec = [label, stack[-1] if stack else -1, time.perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if after is not None:
                rec[4] = after(out, *args, **kwargs)
            return out

        return traced

    def leaf(self, wf):
        """The wavefunction with an evaluator that counts its calls made from
        inside a composite's evaluation (a sum or multiple of labels)."""
        evaluate, spans, stack, counts = wf.evaluator, self.spans, self._stack, self.counts

        def evaluator(rho, mu, phi):
            if stack and spans[stack[-1]][0] == "photon.values.composite":
                counts["photon.leaf_evals"] += 1
            return evaluate(rho, mu, phi)

        return dataclasses.replace(wf, evaluator=evaluator)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def install(tracer: Tracer) -> None:
    import numpy as np
    import softcone
    from softcone import cli, pairing, photon, profiles, quadrature, testfields, wavecheck, weyl
    from softcone.quadrature import QuadratureSpec

    modules = (softcone, cli, pairing, photon, profiles, quadrature, testfields, wavecheck, weyl)

    def rebind(orig, new):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, new)

    def function(owner, attr, name, after=None, result=None):
        orig = getattr(owner, attr)
        fn = orig if result is None else functools.wraps(orig)(lambda *a, **k: result(orig(*a, **k)))
        rebind(orig, tracer.wrap(name, fn, after))

    def method(cls, attr, name, after=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), after))

    def err_over_tol(q, err, scale, value):
        q = q if q is not None else QuadratureSpec()
        return err / max(q.abs_tol, q.rel_tol * max(scale, abs(value)))

    def pair_after(res, v, f, quadrature=None, r_bounds=None):
        return {"err_over_tol": err_over_tol(quadrature, res.error_estimate, res.scale, res.value)}

    def limit_after(rows, params, fields, T_list, quadrature=None):
        return {"err_over_tol": max(err_over_tol(quadrature, r["err"], r["scale"], r["total"]) for r in rows)}

    def radial_values_after(out, ws, t, radii, derivative=0):
        bucket = wavecheck._bucket(float(np.max(radii, initial=0.0)) + abs(float(t)))
        return {"kernel_elements": np.size(radii) * ws._rules[bucket][0].size}

    def grid_points(extent, spacing):
        return (int(round(extent / spacing)) + 1) ** 3

    def symplectic_after(out, *args, **kwargs):
        return {"grid_points": grid_points(out["extent"], out["spacing"]) * len(out["rows"])}

    def mass_after(out, ws, t, extent=None, spacing=None):
        # the defaults of wavecheck.mass_outside_cone
        r = ws.support_radius
        extent = extent if extent is not None else 4.0 * (r + max(abs(float(t)), 1.0))
        spacing = spacing if spacing is not None else r / 16.0
        return {"grid_points": grid_points(extent, spacing)}

    legendre = np.polynomial.legendre
    legendre.leggauss = tracer.wrap("quadrature.gauss_rule.build", legendre.leggauss,
                                    lambda out, order: {"order": order})
    function(quadrature, "radial_mesh", "quadrature.radial_mesh",
             lambda out, *a, **k: {"nodes": out[0].size})
    function(quadrature, "angular_mesh", "quadrature.angular_mesh")
    function(pairing, "pair", "pairing.pair", pair_after)
    function(pairing, "build_mesh", "pairing.build_mesh")
    function(pairing, "_accumulate", "pairing.accumulate",
             lambda out, mesh, parts, f: {"nodes": mesh.node_count})
    function(pairing, "limit_T_study", "pairing.limit_T_study", limit_after)
    method(photon.PhotonWaveFunction, "values",
           lambda wf, *a: "photon.values." + wavefunction_kind(wf.label))
    function(profiles, "profile_wavefunction", "profiles.profile_wavefunction", result=tracer.leaf)
    function(testfields, "photon_wavefunction", "testfields.photon_wavefunction", result=tracer.leaf)
    method(testfields.RadialBumpTransform, "__call__", "testfields.radial_transform",
           lambda out, tr, rho: {"points": np.size(rho)})
    method(testfields.TimeBumpTransform, "__call__", "testfields.time_transform",
           lambda out, tr, rho: {"points": np.size(rho)})
    function(weyl, "multiply", "weyl.multiply",
             lambda out, *a, **k: {"word_length": out.label.label.count("local-field")})
    method(wavecheck.WaveSolution, "radial_values", "wavecheck.radial_values", radial_values_after)
    function(wavecheck, "symplectic_time_invariance", "wavecheck.symplectic_time_invariance",
             symplectic_after)
    function(wavecheck, "mass_outside_cone", "wavecheck.mass_outside_cone", mass_after)
    function(wavecheck, "bj_support_check", "wavecheck.bj_support_check")
    function(cli, "parse_config", "cli.parse_config")
    function(cli, "emit_plot_data", "cli.emit_plot_data")


# ----------------------------------------------------------------- roll-up

PER_LAYER = (
    ("quadrature.gauss_rule.builds", "count"),
    ("quadrature.gauss_rule.build_s", "s"),
    ("quadrature.gauss_rule.max_order", "count"),
    ("quadrature.radial_mesh.calls", "count"),
    ("quadrature.radial_mesh.s", "s"),
    ("quadrature.radial_mesh.nodes", "count"),
    ("quadrature.angular_mesh.s", "s"),
    ("pairing.pair.calls", "count"),
    ("pairing.pair.s", "s"),
    ("pairing.build_mesh.s", "s"),
    ("pairing.limit_T_study.s", "s"),
    ("pairing.accumulate.self_s", "s"),
    ("pairing.nodes", "count"),
    ("pairing.ns_per_node", "ns"),
    ("pairing.err_over_tol.max", "ratio"),
    ("photon.values.calls", "count"),
    ("photon.eval_s.profile", "s"),
    ("photon.eval_s.local", "s"),
    ("photon.eval_s.composite", "s"),
    ("photon.leaf_evals", "count"),
    ("weyl.multiply.calls", "count"),
    ("weyl.multiply.s", "s"),
    ("weyl.word_length.max", "count"),
    ("testfields.photon_wavefunction.calls", "count"),
    ("testfields.photon_wavefunction.s", "s"),
    ("testfields.radial_transform.points", "count"),
    ("testfields.radial_transform.s", "s"),
    ("testfields.time_transform.points", "count"),
    ("testfields.time_transform.s", "s"),
    ("profiles.profile_wavefunction.s", "s"),
    ("wavecheck.radial_values.s", "s"),
    ("wavecheck.radial_values.kernel_elements", "count"),
    ("wavecheck.symplectic_time_invariance.s", "s"),
    ("wavecheck.mass_outside_cone.s", "s"),
    ("wavecheck.bj_support_check.s", "s"),
    ("wavecheck.grid_points", "count"),
    ("wavecheck.ns_per_grid_point", "ns"),
    ("cli.parse_config_s", "s"),
    ("cli.emit_plot_data_s", "s"),
) + tuple((f"cli.study_s.{s}", "s") for s in STUDIES) + (("trace.overhead_s", "s"),)


class _Agg:
    __slots__ = ("calls", "total", "self_time", "attrs")

    def __init__(self):
        self.calls, self.total, self.self_time, self.attrs = 0, 0.0, 0.0, {}


def aggregate(spans) -> dict:
    """Per span name: calls, total time, self time (duration minus the time
    of its direct child spans), and attribute sums and maxima."""
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    agg = {}
    for i, (name, _, t0, t1, attrs) in enumerate(spans):
        a = agg.setdefault(name, _Agg())
        a.calls += 1
        a.total += t1 - t0
        a.self_time += t1 - t0 - child_time[i]
        for key, value in (attrs or {}).items():
            s, m = a.attrs.get(key, (0, 0))
            a.attrs[key] = (s + value, max(m, value))
    return agg


def layer_metrics(trace: dict, report: dict) -> dict:
    """Per-layer figures of one traced process (trace.overhead_s excluded)."""
    agg = aggregate(trace["spans"])
    empty = _Agg()

    def get(name):
        return agg.get(name, empty)

    def attr(name, key, which=0):
        return get(name).attrs.get(key, (0, 0))[which]

    acc = get("pairing.accumulate")
    nodes = attr("pairing.accumulate", "nodes")
    grid = attr("wavecheck.symplectic_time_invariance", "grid_points") + attr(
        "wavecheck.mass_outside_cone", "grid_points")
    grid_s = get("wavecheck.symplectic_time_invariance").total + get("wavecheck.mass_outside_cone").total
    values_calls = sum(a.calls for n, a in agg.items() if n.startswith("photon.values."))
    m = {
        "quadrature.gauss_rule.builds": get("quadrature.gauss_rule.build").calls,
        "quadrature.gauss_rule.build_s": get("quadrature.gauss_rule.build").total,
        "quadrature.gauss_rule.max_order": attr("quadrature.gauss_rule.build", "order", 1),
        "quadrature.radial_mesh.calls": get("quadrature.radial_mesh").calls,
        "quadrature.radial_mesh.s": get("quadrature.radial_mesh").total,
        "quadrature.radial_mesh.nodes": attr("quadrature.radial_mesh", "nodes"),
        "quadrature.angular_mesh.s": get("quadrature.angular_mesh").total,
        "pairing.pair.calls": get("pairing.pair").calls,
        "pairing.pair.s": get("pairing.pair").total,
        "pairing.build_mesh.s": get("pairing.build_mesh").total,
        "pairing.limit_T_study.s": get("pairing.limit_T_study").total,
        "pairing.accumulate.self_s": acc.self_time,
        "pairing.nodes": nodes,
        "pairing.ns_per_node": 1e9 * acc.total / nodes if nodes else 0.0,
        "pairing.err_over_tol.max": max(attr("pairing.pair", "err_over_tol", 1),
                                        attr("pairing.limit_T_study", "err_over_tol", 1)),
        "photon.values.calls": values_calls,
        "photon.eval_s.profile": get("photon.values.profile").total,
        "photon.eval_s.local": get("photon.values.local").total,
        "photon.eval_s.composite": get("photon.values.composite").total,
        "photon.leaf_evals": trace["counts"]["photon.leaf_evals"],
        "weyl.multiply.calls": get("weyl.multiply").calls,
        "weyl.multiply.s": get("weyl.multiply").total,
        "weyl.word_length.max": attr("weyl.multiply", "word_length", 1),
        "testfields.photon_wavefunction.calls": get("testfields.photon_wavefunction").calls,
        "testfields.photon_wavefunction.s": get("testfields.photon_wavefunction").total,
        "testfields.radial_transform.points": attr("testfields.radial_transform", "points"),
        "testfields.radial_transform.s": get("testfields.radial_transform").total,
        "testfields.time_transform.points": attr("testfields.time_transform", "points"),
        "testfields.time_transform.s": get("testfields.time_transform").total,
        "profiles.profile_wavefunction.s": get("profiles.profile_wavefunction").total,
        "wavecheck.radial_values.s": get("wavecheck.radial_values").total,
        "wavecheck.radial_values.kernel_elements": attr("wavecheck.radial_values", "kernel_elements"),
        "wavecheck.symplectic_time_invariance.s": get("wavecheck.symplectic_time_invariance").total,
        "wavecheck.mass_outside_cone.s": get("wavecheck.mass_outside_cone").total,
        "wavecheck.bj_support_check.s": get("wavecheck.bj_support_check").total,
        "wavecheck.grid_points": grid,
        "wavecheck.ns_per_grid_point": 1e9 * grid_s / grid if grid else 0.0,
        "cli.parse_config_s": get("cli.parse_config").total,
        "cli.emit_plot_data_s": get("cli.emit_plot_data").total,
    }
    times = {s["name"]: s["wall_time_s"] for s in report["studies"]}
    for study in STUDIES:
        m[f"cli.study_s.{study}"] = times.get(study, 0.0)
    return m
