"""Which qvpmaps functions the traced run wraps, and the per-layer metrics
computed from their spans.

Every ``busy_s`` is self time: the layer's spans minus the part covered by
the spans of other traced layers they call, so the busy times of all layers
add up to at most the traced wall time.  All values are per repetition of the
workload's input set.
"""

from __future__ import annotations

#: (name, unit, better) of each per-layer metric, in report order.
PER_LAYER = [
    ("manifold.grow_2d.busy_s", "s", "lower"),
    ("manifold.grow_2d.vertices", "count", "lower"),
    ("manifold.grow_2d.triangles", "count", "lower"),
    ("manifold.grow_2d.subrings", "count", "lower"),
    ("manifold.candidate_pairs.busy_s", "s", "lower"),
    ("manifold.candidate_pairs.pairs", "count", "lower"),
    ("manifold.tri_tri_segment.busy_s", "s", "lower"),
    ("manifold.tri_tri_segment.calls", "count", "lower"),
    ("manifold.tri_tri_segment.hit_ratio", "ratio", "higher"),
    ("manifold.stitch_segments.busy_s", "s", "lower"),
    ("manifold.stitch_segments.segments", "count", "lower"),
    ("manifold.intersect_meshes.curves", "count", "higher"),
    ("manifold.hausdorff_distance.busy_s", "s", "lower"),
    ("manifold.hausdorff_distance.value", "1", "lower"),
    ("manifold.heteroclinic_from_symmetry.busy_s", "s", "lower"),
    ("manifold.heteroclinic_from_symmetry.hits", "count", "higher"),
    ("dynamics.symmetric_orbit_search.busy_s", "s", "lower"),
    ("dynamics.symmetric_orbit_search.hits", "count", "higher"),
    ("dynamics.step.calls", "count", "lower"),
    ("dynamics.step.busy_s", "s", "lower"),
    ("dynamics.step_back.calls", "count", "lower"),
    ("dynamics.stability_diagram.busy_s", "s", "lower"),
    ("dynamics.stability_diagram.cells", "count", "higher"),
    ("dynamics.fixed_points.calls", "count", "lower"),
    ("dynamics.fixed_points.busy_s", "s", "lower"),
    ("dynamics.classify_stability.calls", "count", "lower"),
    ("dynamics.classify_stability.busy_s", "s", "lower"),
    ("dynamics.cubic_roots.calls", "count", "lower"),
    ("cli.format_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.write_bytes", "B", "lower"),
    ("cli.outputs", "count", "higher"),
    ("cli.outputs_identical", "count", "higher"),
    ("normalform.to_normal_form.calls", "count", "lower"),
    ("normalform.to_normal_form.busy_s", "s", "lower"),
    ("normalform.to_normal_form.refused", "count", "lower"),
    ("normalform.reduce_generic.busy_s", "s", "lower"),
    ("polymap.compose.calls", "count", "lower"),
    ("polymap.compose.busy_s", "s", "lower"),
    ("polymap.is_volume_preserving.calls", "count", "lower"),
    ("polymap.is_volume_preserving.busy_s", "s", "lower"),
    ("polymap.has_quadratic_inverse.calls", "count", "lower"),
    ("polymap.has_quadratic_inverse.busy_s", "s", "lower"),
    ("shear.extract_shear.calls", "count", "lower"),
    ("shear.extract_shear.busy_s", "s", "lower"),
    ("symplectic.is_symplectic.busy_s", "s", "lower"),
    ("symplectic.symplectic_decompose.busy_s", "s", "lower"),
    ("symplectic.shear_to_gradient_form.busy_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _add(key, fn):
    def after(counts, result, args):
        counts[key] += fn(result, args)
    return after


def targets(tracer):
    """(owner, attribute, wrapper factory) for every traced layer function."""
    from qvpmaps import cli, dynamics, manifold, normalform, polymap, shear, symplectic

    def span(name, after=None):
        return lambda fn: tracer.wrap(fn, name, after)

    def mesh_sizes(counts, mesh, args):
        counts["manifold.grow_2d.vertices"] += len(mesh.vertices)
        counts["manifold.grow_2d.triangles"] += len(mesh.triangles)
        counts["manifold.grow_2d.subrings"] += mesh.subrings

    return [
        (manifold, "grow_2d", span("manifold.grow_2d", mesh_sizes)),
        (manifold, "_candidate_pairs",
         lambda fn: tracer.wrap_generator(fn, "manifold.candidate_pairs")),
        (manifold, "_tri_tri_segment", span(
            "manifold.tri_tri_segment",
            _add("manifold.tri_tri_segment.segments", lambda r, a: r is not None))),
        (manifold, "_stitch_segments", span(
            "manifold.stitch_segments",
            _add("manifold.stitch_segments.segments", lambda r, a: len(a[0])))),
        (manifold, "intersect_meshes", span(
            "manifold.intersect_meshes",
            _add("manifold.intersect_meshes.curves", lambda r, a: len(r)))),
        (manifold, "hausdorff_distance", span(
            "manifold.hausdorff_distance",
            _add("manifold.hausdorff_distance.value", lambda r, a: float(r)))),
        (manifold, "heteroclinic_from_symmetry", span(
            "manifold.heteroclinic_from_symmetry",
            _add("manifold.heteroclinic_from_symmetry.hits", lambda r, a: len(r)))),
        (dynamics, "symmetric_orbit_search", span(
            "dynamics.symmetric_orbit_search",
            _add("dynamics.symmetric_orbit_search.hits", lambda r, a: len(r)))),
        (dynamics.GenericMapParams, "step", span("dynamics.step")),
        (dynamics.GenericMapParams, "step_back", span("dynamics.step_back")),
        (dynamics, "stability_diagram", span(
            "dynamics.stability_diagram",
            _add("dynamics.stability_diagram.cells", lambda r, a: len(r.xs) * len(r.ys)))),
        (dynamics, "fixed_points", span("dynamics.fixed_points")),
        (dynamics, "classify_stability", span("dynamics.classify_stability")),
        (dynamics, "_cubic_roots", span("dynamics.cubic_roots")),
        (cli, "_csv_text", span("cli.format")),
        (cli, "_mesh_obj", span("cli.format")),
        (cli, "_json_text", span("cli.format")),
        (cli, "_diagram_svg", span("cli.format")),
        (cli, "_atomic_write", span(
            "cli.write", _add("cli.write_bytes", lambda r, a: len(a[1].encode())))),
        (normalform, "to_normal_form", span("normalform.to_normal_form")),
        (normalform, "reduce_generic", span("normalform.reduce_generic")),
        (polymap, "compose", span("polymap.compose")),
        (polymap, "is_volume_preserving", span("polymap.is_volume_preserving")),
        (polymap, "has_quadratic_inverse", span("polymap.has_quadratic_inverse")),
        (shear, "extract_shear", span("shear.extract_shear")),
        (symplectic, "is_symplectic", span("symplectic.is_symplectic")),
        (symplectic, "symplectic_decompose", span("symplectic.symplectic_decompose")),
        (symplectic, "shear_to_gradient_form", span("symplectic.shear_to_gradient_form")),
    ]


def metrics(busy, calls, counts):
    """Per-layer metrics of one traced repetition (trace.overhead_s, the
    cli.outputs counts and normalform.to_normal_form.refused, which counts
    the refusals the workload's check classifies, are filled in by the
    runner)."""
    out = {}
    for name, _, _ in PER_LAYER:
        module, _, metric = name.rpartition(".")
        if metric == "busy_s":
            out[name] = busy[module]
        elif metric == "calls":
            out[name] = calls[module]
        elif name in counts:
            out[name] = counts[name]
    pairs = counts["manifold.candidate_pairs.items"]
    out["manifold.candidate_pairs.pairs"] = pairs
    segments = counts["manifold.tri_tri_segment.segments"]
    out["manifold.tri_tri_segment.hit_ratio"] = segments / pairs if pairs else 0.0
    out["cli.format_s"] = busy["cli.format"]
    out["cli.write_s"] = busy["cli.write"]
    for name, _, _ in PER_LAYER:
        out.setdefault(name, 0)
    return out
