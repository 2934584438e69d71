"""Tests of the benchmark itself: generators against a sympy oracle, the
per-op checks against corrupted answers, and tracing against untraced
runs.  Run with ``python -m pytest bench/tests``."""

import json
import random
import statistics
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import checks
import inputs
import run
import tracing
import workloads
from cellcomplexes import all_flags, chain_complex, homology, loads, orient, orient_all_cells
from cellcomplexes.errors import NotOrientableError

LIB = workloads.Lib()
REPO = Path(__file__).resolve().parents[2]


# -- oracle -------------------------------------------------------------------


def sympy_groups(sizes, mats):
    """(betti, torsion) from boundary matrices; mats[i] maps degree i down."""
    def factors(m):
        if 0 in m.shape:
            return []
        d = sympy_snf(sympy.Matrix(m.tolist()), domain=sympy.ZZ)
        return [abs(int(d[i, i])) for i in range(min(d.shape)) if d[i, i] != 0]

    f = [factors(m) for m in mats] + [[]]
    betti = tuple(sizes[i] - len(f[i]) - len(f[i + 1]) for i in range(len(sizes)))
    torsion = tuple(tuple(sorted(t for t in f[i + 1] if t > 1)) for i in range(len(sizes)))
    return betti, torsion


def simplicial_matrices(facets):
    """Boundary matrices straight from vertex sets, alternating signs."""
    closed = set()
    for f in facets:
        for k in range(1, len(f) + 1):
            closed.update(combinations(sorted(f), k))
    dim = max(map(len, closed)) - 1
    bases = [sorted(s for s in closed if len(s) == r + 1) for r in range(dim + 1)]
    index = [{s: i for i, s in enumerate(b)} for b in bases]
    mats = [np.zeros((0, len(bases[0])), dtype=np.int64)]
    for r in range(1, dim + 1):
        m = np.zeros((len(bases[r - 1]), len(bases[r])), dtype=np.int64)
        for j, s in enumerate(bases[r]):
            for i in range(len(s)):
                m[index[r - 1][s[:i] + s[i + 1:]], j] = (-1) ** i
        mats.append(m)
    return [len(b) for b in bases], mats


@pytest.mark.parametrize("kind,rows,cols", [("torus", 3, 3), ("torus", 3, 4),
                                            ("klein", 3, 3), ("klein", 4, 3)])
def test_generated_surfaces_agree_with_sympy(kind, rows, cols):
    case = workloads.grid_case(LIB, random.Random(1), "s", rows, cols, kind)
    cc = chain_complex(case.data["complex"], orient_all_cells(case.data["complex"]))
    sizes = [len(b) for b in cc.bases]
    mats = [cc.boundary_matrix(i) for i in range(3)]
    h = sympy_groups(sizes, mats)
    co = sympy_groups(sizes[::-1], [np.zeros((0, sizes[2]), dtype=np.int64)]
                      + [cc.boundary_matrix(3 - j).T for j in (1, 2)])
    co = tuple(co[0][::-1]), tuple(co[1][::-1])
    if kind == "torus":
        assert h == co == inputs.TORUS
    else:
        assert (h, co) == (inputs.KLEIN_HOMOLOGY, inputs.KLEIN_COHOMOLOGY)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generated_spheres_agree_with_sympy(n):
    facets = inputs.sphere_facets(n, inputs.vertex_tokens(n + 1, "p", random.Random(n)))
    assert sympy_groups(*simplicial_matrices(facets)) == inputs.sphere(n - 1)
    s = LIB.from_simplicial(facets)
    assert checks.groups_of(homology(s, orient_all_cells(s))) == inputs.sphere(n - 1)


def test_rp2_facets_give_the_projective_plane():
    facets = inputs.rp2_facets(inputs.vertex_tokens(6, "r", random.Random(0)))
    assert sympy_groups(*simplicial_matrices(facets)) == inputs.rp2_times_contractible(2)


# -- generators ---------------------------------------------------------------


def described(s):
    ranks = {str(c): s.rank(c) for c in s.cells}
    faces = {str(c): frozenset(str(f) for f in s.faces(c)) for c in s.cells}
    return ranks, faces


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_plans_validate_and_match_their_descriptions(name, tmp_path):
    cases = workloads.WORKLOADS[name].prepare(LIB, random.Random(7), tmp_path)
    for case in cases:
        if "complex" in case.data:
            s = case.data["complex"]
        elif "path" in case.data:
            s = loads(Path(case.data["path"]).read_text())
        elif "facets" in case.data:
            s = LIB.from_simplicial(case.data["facets"])
        else:
            s = LIB.product(*case.data["factors"])
        assert described(s) == (case.poset.ranks, case.poset.faces), case.label


def test_seed_draws_names_and_order_not_sizes(tmp_path):
    prep = workloads.WORKLOADS["polytope_orient"].prepare
    a = prep(LIB, random.Random(1), tmp_path)
    b = prep(LIB, random.Random(1), tmp_path)
    c = prep(LIB, random.Random(2), tmp_path)
    assert [x.poset for x in a] == [x.poset for x in b]
    assert [x.label for x in a] != [x.label for x in c]
    assert sorted(x.cells for x in a) == sorted(x.cells for x in c)
    names = lambda cases: {x.label: set(x.poset.ranks) for x in cases}
    assert names(a) != names(c)


@pytest.mark.parametrize("facets", [[("a", "b", "c")], [("a", "b", "c"), ("b", "c", "d")],
                                    inputs.sphere_facets(3, list("pqrs"))])
def test_chain_and_flag_counts_match_the_library(facets):
    s = LIB.from_simplicial(facets)
    p = inputs.simplicial(facets)
    b, _ = LIB.barycentric(s)
    assert inputs.chain_counts(p) == [len(b.cells_of_rank(r)) for r in range(b.dim + 1)]
    assert inputs.top_flag_count(p) == len(all_flags(s))


# -- checks reject corrupted answers -------------------------------------------


def surface_case(tmp_path, kind):
    case = workloads.grid_case(LIB, random.Random(3), kind, 3, 3, kind)
    case.expected = ((inputs.TORUS, inputs.TORUS) if kind == "torus" else
                     (inputs.KLEIN_HOMOLOGY, inputs.KLEIN_COHOMOLOGY))
    path = tmp_path / f"{kind}.ccc"
    path.write_text(LIB.dumps(case.data.pop("complex")))
    case.data["path"] = str(path)
    return case


@pytest.mark.parametrize("kind", ["torus", "klein"])
def test_surface_check_rejects_wrong_groups_and_exit_codes(tmp_path, kind):
    case = surface_case(tmp_path, kind)
    out = workloads.surface_run(LIB, case)
    assert workloads.surface_check(case, out) is None
    (v, (hcode, htext), co) = out
    flipped = htext.replace("betti_1=", "betti_1=9")
    assert "homology" in workloads.surface_check(case, [v, (hcode, flipped), co])
    no_torsion = co[1].replace("torsion_2=2", "torsion_2=")
    if kind == "klein":
        assert workloads.surface_check(case, [v, (hcode, htext), (0, no_torsion)])
    assert "exit 2" in workloads.surface_check(case, [v, (2, htext), co])
    assert workloads.surface_check(case, [(1, v[1]), (hcode, htext), co])


def rp2_certificate():
    s = LIB.from_simplicial(inputs.rp2_facets(inputs.vertex_tokens(6, "r", random.Random(0))))
    with pytest.raises(NotOrientableError) as e:
        orient(s)
    return s, e.value.odd_cycle


def test_certificate_check_rejects_broken_cycles():
    s, cycle = rp2_certificate()
    poset = inputs.simplicial([tuple(str(c).split("_")) for c in s.cells_of_rank(2)])
    assert checks.check_certificate(cycle, poset) is None
    assert "even length" in checks.check_certificate(cycle[:-1], poset)
    repeated = cycle[:1] + cycle[2:3] + cycle[2:]
    assert "not adjacent" in checks.check_certificate(repeated, poset)
    assert "full flag" in checks.check_certificate([cycle[0][:-1]] + cycle[1:], poset)
    assert checks.check_certificate(None, poset)


def test_orientation_check_rejects_a_flipped_flag():
    facets = [("a", "b", "c", "d")]
    s = LIB.from_simplicial(facets)
    colors = dict(orient(s).colors)
    poset = inputs.simplicial(facets)
    assert checks.check_orientation(colors, poset) is None
    first = next(iter(colors))
    colors[first] = -colors[first]
    assert "share a colour" in checks.check_orientation(colors, poset)


def polytope_case(shape_facets, expected, orientable=True):
    case = workloads.simplicial_case(LIB, "p", shape_facets, expected)
    case.data["orientable"] = orientable
    del case.data["complex"]
    return case


def test_polytope_check_rejects_a_wrong_sign_and_betti():
    case = polytope_case([("a", "b", "c", "d")], inputs.point_like(3))
    out = workloads.polytope_run(LIB, case)
    assert workloads.polytope_check(case, out) is None
    table = out["simplicial"]
    pair = next(iter(table.signs))
    table.signs[pair] = -table.signs[pair]
    assert "disagree" in workloads.polytope_check(case, out)
    out = workloads.polytope_run(LIB, case)
    case.expected = inputs.sphere(3)
    assert "homology" in workloads.polytope_check(case, out)


def test_polytope_check_needs_a_certificate_on_rp2():
    facets = inputs.rp2_facets(inputs.vertex_tokens(6, "r", random.Random(0)))
    case = polytope_case(facets, inputs.rp2_times_contractible(2), orientable=False)
    out = workloads.polytope_run(LIB, case)
    assert workloads.polytope_check(case, out) is None
    out["certificate"] = out["certificate"][:-1]
    assert "even length" in workloads.polytope_check(case, out)


def test_tower_check_rejects_wrong_counts_and_signs():
    cases = workloads.tower_cases(LIB, random.Random(0))
    case = min(cases, key=lambda c: c.cells)
    eps, text = workloads.tower_run(LIB, case)
    assert workloads.tower_check(case, (eps, text)) is None
    assert workloads.tower_check(case, ([0] + eps[1:], text))
    dropped = "\n".join(line for i, line in enumerate(text.splitlines()) if i != 1)
    assert "want" in workloads.tower_check(case, (eps, dropped))


def test_duality_check_rejects_residuals_and_bad_pairings():
    cases = workloads.duality_cases(LIB, random.Random(0))
    torus = next(c for c in cases if c.label.startswith("duality:torus3#"))
    report, stokes, mats = workloads.duality_run(LIB, torus)
    assert workloads.duality_check(torus, (report, stokes, mats)) is None
    assert "unimodular" in workloads.duality_check(torus, (report, stokes,
                                                           [2 * m for m in mats]))
    stokes.adjoint_residuals = 1
    assert "stokes" in workloads.duality_check(torus, (report, stokes, mats))
    klein = next(c for c in cases if c.label.startswith("duality:klein3#"))
    out = workloads.duality_run(LIB, klein)
    assert workloads.duality_check(klein, out) is None
    out[0].certificate = out[0].certificate[:-1]
    assert "even length" in workloads.duality_check(klein, out)


def test_integer_det():
    assert checks.integer_det([]) == 1
    assert checks.integer_det([[0, 1], [1, 0]]) == -1
    assert checks.integer_det([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 4


# -- tracing -------------------------------------------------------------------


def comparable(case, out):
    """Outputs in a form that compares by value."""
    if isinstance(out, dict):  # polytope_orient
        return (checks.groups_of(out["homology"]), out["signs"].signs,
                out.get("simplicial") and out["simplicial"].signs,
                out.get("orientation") and out["orientation"].colors, out.get("certificate"))
    if case.data.get("pipeline") == "duality":
        report, stokes, mats = out
        return str(report), stokes, mats and [m.tolist() for m in mats]
    return out


def small_case(name, tmp_path, pipeline=None):
    cases = workloads.WORKLOADS[name].prepare(LIB, random.Random(5), tmp_path)
    cases = [c for c in cases if c.data.get("pipeline") == pipeline]
    return sorted(cases, key=lambda c: c.cells)[len(cases) // 3]


@pytest.mark.parametrize("name,pipeline", [("surface_homology", None), ("polytope_orient", None),
                                           ("subdivision_duality", "tower"),
                                           ("subdivision_duality", "duality")])
def test_traced_op_matches_untraced_and_restores(name, pipeline, tmp_path):
    wl = workloads.WORKLOADS[name]
    case = small_case(name, tmp_path, pipeline)
    plain = comparable(case, wl.run(LIB, case))
    before = {(m, a): vars(__import__(f"cellcomplexes.{m}", fromlist=["x"]))[a]
              for m, names in tracing.NAMESPACE_PATCHES.items() for a in names}
    lib_before = dict(vars(LIB))
    tracer = tracing.Tracer()
    tracer.install(LIB)
    try:
        with tracer.root(0):
            traced = comparable(case, wl.run(LIB, case))
    finally:
        tracer.restore()
    assert traced == plain
    assert wl.check(case, wl.run(LIB, case)) is None
    assert len(tracer.start) > 1 and tracer.names[tracer.name_of[0]] == tracing.ROOT
    after = {(m, a): vars(__import__(f"cellcomplexes.{m}", fromlist=["x"]))[a]
             for m, a in before}
    assert after == before and vars(LIB) == lib_before
    metrics = tracer.metrics(1, tracer.root_time(), 0.0)
    assert set(metrics) == set(tracing.per_layer_units())
    assert metrics["trace.lib_cover"] > 0.5


def test_every_self_time_span_is_wrapped():
    tracer = tracing.Tracer()
    tracer.install(LIB)
    tracer.restore()
    spans = {s for spans in tracing.SELF_TIME.values() for s in spans}
    assert spans <= set(tracer.names) | {"cli.main"} and "cli.main" in tracer.names
    assert set(tracing.COUNTERS) <= set(tracer.names)


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()

    def inner():
        return sum(range(20000))

    wrapped_inner = tracer._wrap(inner)

    def outer():
        return wrapped_inner() + sum(range(20000))

    wrapped_outer = tracer._wrap(outer)
    with tracer.root(0):
        wrapped_outer()
    own = tracer.self_times()
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    assert list(tracer.parent) == [-1, 0, 1]
    assert own[tracing.span_name(inner)] == pytest.approx(dur[2])
    assert sum(own.values()) == pytest.approx(dur[0])


# -- the contract ----------------------------------------------------------------


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


PLANS = {"surface_homology": workloads.SURFACE_SIZES, "polytope_orient": workloads.POLYTOPE_PLAN,
         "subdivision_duality": workloads.TOWER_PLAN + workloads.DUALITY_PLAN}


@pytest.mark.parametrize("batches", [2, 3, 5])
def test_end_to_end_metrics_follow_the_op_samples(batches):
    for name, plan in PLANS.items():
        m = len(plan)
        tally = run.Tally()
        tally.attempted = m * batches
        tally.latencies = {f"in{i}": [i + b / 10 for b in range(batches)] for i in range(m)}
        ops = sorted(t for v in tally.latencies.values() for t in v)
        metrics, details = run.end_to_end(tally, [], [1.0, 3.0, 2.0], [4.0, 9.0, 5.0])
        tail = metrics["op_tail_ms"] / 1000
        assert sum(t > tail for t in ops) == 10, name
        assert details["op_samples"] == m * batches
        assert details["tail_percentile"] == round(100 * (m * batches - 10) / (m * batches), 2)
        assert metrics["op_p50_ms"] / 1000 == pytest.approx(statistics.median(ops))
        assert metrics["wall_s"] == 5.0 and metrics["setup_s"] == 2.0


def test_batch_scales_each_op_by_the_calibrations_around_it(monkeypatch):
    # before op 0, then after ops 0 to 3; 0.04 is a calibration the host
    # interrupted, and the median of four leaves it out
    samples = iter([0.02, 0.02, 0.02, 0.04, 0.02])
    monkeypatch.setattr(run, "calibrate", lambda: next(samples))
    wl = workloads.Workload("w", None, None, lambda case, out: None)
    cases = [workloads.Case(f"in{i}", None, None) for i in range(4)]
    tally = run.Tally()
    monkeypatch.setattr(tally, "op", lambda *args: 0.3)
    total, _ = tally.batch(wl, LIB, cases)
    scale = run.REF_CALIBRATE_S / 0.02
    assert total == pytest.approx(4 * 0.3 * scale)
    assert tally.latencies == {f"in{i}": [pytest.approx(0.3 * scale)] for i in range(4)}
    assert tally.trail == [{"op_s": [0.3] * 4, "calibrate_s": [0.02, 0.02, 0.02, 0.04, 0.02]}]


def test_unknown_patch_target_raises():
    tracer = tracing.Tracer()
    with pytest.raises(KeyError):
        tracer._patch(tracing, "no_such_function")
