"""The quadrature data that depend only on the rules: the reference tables of
each shared rule, kept for the process per (kind, p, rule degree) where
they fit ``linsolve.KEEP_BYTES``, and each policy's layout (classification,
element lists, edge pairs, corner wedges), kept by its mesh per (part, p,
base degree, singularity).  Kept or built per call, in any call order and
whatever the chunk budgets, they give the same bits; a policy with another
key builds another layout, and a warm call evaluates no basis at a shared
rule and builds no layout."""

import pytest

import hdivkit.elements
import hdivkit.linsolve
import hdivkit.quadpolicy
from hdivkit import fields
from hdivkit.best_approx import error_report
from hdivkit.elements import rtn_dim
from hdivkit.linsolve import KEEP_BYTES
from hdivkit.mesh import build_lshape, build_structured
from hdivkit.projections import canonical_interp
from hdivkit.projector import project_hdiv, random_conforming_field
from hdivkit.quadpolicy import QuadPolicy
from test_batched_projector import stream_field
from test_kept_systems import _arrays, _same


def singular(alpha=2 / 3):
    return fields.catalog("lshape_singular", {"alpha": alpha})


def _outputs(v, p, mesh, variant="def31", quad_degree=None):
    rep = error_report(v, p, mesh, quad_degree=quad_degree)
    return [project_hdiv(v, p, mesh, variant=variant, quad_degree=quad_degree).dofs, rep.Eloc, rep.Eglob_l2,
            rep.Eglob_div, rep.metadata["minimizer"].dofs, canonical_interp(v, p, mesh, quad_degree=quad_degree).coeffs]


@pytest.fixture
def tables(monkeypatch):
    """An empty process-wide table store for the test: what it keeps is its own."""
    monkeypatch.setattr(hdivkit.quadpolicy, "_REFERENCE", {})
    return lambda: hdivkit.quadpolicy._REFERENCE


def _layouts(mesh):
    return {key[1:]: entry for key, (_, entry) in mesh._cache.items() if key[0] == "quad_layout"}


def test_kept_tables_and_layouts_are_read_only(tables):
    mesh, v, p = build_lshape(2), singular(), 4
    _outputs(v, p, mesh)
    canonical_interp(v, p, mesh)
    kept, layouts = tables(), _layouts(mesh)
    assert {key[0] for key in kept} == {"prim", "phi"} and {key[1] for key in kept} == {p - 1, p}
    assert {key[0] for key in layouts} == {"classes", ("wedges", False), ("edges", True)}
    for entry in [e for _, e in kept.values()] + list(layouts.values()):
        arrays = _arrays(entry)
        assert arrays and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            arrays[0].flat[0] = 0


CASES = {"lshape2-def31": (lambda: build_lshape(2), lambda m: singular(), "def31"),
         "lshape2-def52": (lambda: build_lshape(2), lambda m: singular(), "def52"),
         "structured4-discrete": (lambda: build_structured(4), lambda m: random_conforming_field(m, 6, seed=3), "def31")}


def _per_call(monkeypatch, run):
    """``run()`` with every table built per call: a budget of 0 (the mesh
    keeps what it holds already) and an empty process-wide store that
    stays empty."""
    monkeypatch.setattr(hdivkit.linsolve, "KEEP_BYTES", 0)
    monkeypatch.setattr(hdivkit.quadpolicy, "_REFERENCE", {})
    out = run()
    assert not hdivkit.quadpolicy._REFERENCE
    return out


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("p", [4, 5, 6])
def test_tables_built_per_call_give_the_bits_of_the_kept_tables(monkeypatch, tables, case, p):
    build, field, variant = CASES[case]
    mesh = build()
    v = field(mesh)
    want = _outputs(v, p, mesh, variant)
    assert p in {key[1] for key in tables()}
    assert _same(_per_call(monkeypatch, lambda: _outputs(v, p, mesh, variant)), want)


def test_layouts_and_tables_with_another_key_give_the_bits_of_a_fresh_mesh(monkeypatch, tables):
    # two exponents (another gamma) and two quadrature degrees (another base
    # degree) on one mesh at one p, and one quadrature degree at another p
    # (other edge rules): each builds its own layout
    mesh = build_lshape(2)
    runs = [(singular(2 / 3), None, 4), (singular(0.6), None, 4), (singular(), 16, 4), (singular(), 24, 4),
            (singular(), 24, 5), (singular(0.6), None, 4)]
    for v, q, p in runs:
        got = _outputs(v, p, mesh, quad_degree=q)
        monkeypatch.setattr(hdivkit.quadpolicy, "_REFERENCE", {})
        assert _same(got, _outputs(v, p, build_lshape(2), quad_degree=q))
    assert len([key for key in _layouts(mesh) if key[:2] == ("classes", 4)]) == 4


@pytest.mark.parametrize("case", ["lshape2-def31", "structured4-discrete"])
def test_keep_decisions_do_not_depend_on_the_chunk_budgets(monkeypatch, case):
    # a few elements, one wedge and a few edges per chunk keep the same
    # tables, and the kept tables give the bits of the tables built per
    # call there too.  A shared rule's chunk height (POINT_BYTES) and a
    # singular field's wedge chunks (STACK_BYTES) move sigma's last bits, so
    # sigma is compared across budgets only for the discrete field under a
    # smaller STACK_BYTES
    build, field, variant = CASES[case]
    p, kept, sigma = 6, [], []
    for point_bytes, stack_bytes in ((hdivkit.linsolve.POINT_BYTES, hdivkit.linsolve.STACK_BYTES),
                                     (hdivkit.linsolve.POINT_BYTES, 1 << 16), (1 << 14, 1 << 16)):
        monkeypatch.setattr(hdivkit.linsolve, "POINT_BYTES", point_bytes)
        monkeypatch.setattr(hdivkit.linsolve, "STACK_BYTES", stack_bytes)
        monkeypatch.setattr(hdivkit.quadpolicy, "_REFERENCE", {})
        mesh = build()
        v = field(mesh)
        run = lambda: _outputs(v, p, mesh, variant)
        want = run()
        kept.append(sorted(hdivkit.quadpolicy._REFERENCE))
        sigma.append(want[0])
        monkeypatch.setattr(hdivkit.linsolve, "KEEP_BYTES", 0)
        monkeypatch.setattr(hdivkit.quadpolicy, "_REFERENCE", {})
        assert _same(run(), want) and not hdivkit.quadpolicy._REFERENCE
        monkeypatch.setattr(hdivkit.linsolve, "KEEP_BYTES", KEEP_BYTES)
    assert kept[0] and kept[0] == kept[1] == kept[2]
    assert case != "structured4-discrete" or _same(sigma[:1], sigma[1:2])


def test_a_table_is_kept_where_its_bytes_fit_the_budget(monkeypatch, tables):
    # the escalated self-check rule at p = 8, degree 2(40 + 8): its prim table
    # (3.8 MB) is built per group, its phi table (0.9 MB) kept
    policy = QuadPolicy(8, build_lshape(2), singularity=singular().singularity)
    g = next(g for g in policy.check_groups() if g.shared and 16 * rtn_dim(8) * len(g.ref) > KEEP_BYTES)
    prim, phi = g.prim(8), g.phi(8)
    assert set(tables()) == {("phi", 8, g.rule)} and tables()[("phi", 8, g.rule)][1] is phi
    assert g._tables[("prim", 8, g.rule)][1] is prim and not prim.flags.writeable
    # the budget is the table's bytes, 8 * nprim * 2 * nq for prim
    g = next(iter(QuadPolicy(2, build_structured(2), stream_field()).groups()))
    need = 16 * rtn_dim(2) * len(g.ref)
    for budget, keeps in ((need, True), (need - 1, False)):
        monkeypatch.setattr(hdivkit.linsolve, "KEEP_BYTES", budget)
        monkeypatch.setattr(hdivkit.quadpolicy, "_REFERENCE", {})
        fresh = next(iter(QuadPolicy(2, build_structured(2), stream_field()).groups()))
        assert fresh.prim(2).nbytes == need and (("prim", 2, g.rule) in tables()) == keeps


def test_a_warm_call_evaluates_no_basis_at_a_shared_rule_and_builds_no_layout(monkeypatch, tables):
    mesh, p = build_structured(4), 6
    v = random_conforming_field(mesh, 6, seed=1)
    seen, built = [], []
    real = hdivkit.elements.RTNBasis.eval
    monkeypatch.setattr(hdivkit.elements.RTNBasis, "eval", lambda self, pts: seen.append(pts.tobytes()) or real(self, pts))
    for name in ("_classify", "_edge_pairs", "_wedge_points"):
        build = getattr(QuadPolicy, name)
        monkeypatch.setattr(QuadPolicy, name, lambda *a, build=build, name=name: built.append(name) or build(*a))
    first = project_hdiv(v, p, mesh).dofs
    policy = QuadPolicy(p, mesh, v)
    shared = {g.ref.tobytes() for groups in (policy.groups(), policy.check_groups()) for g in groups if g.shared}
    assert shared & set(seen) and built
    seen.clear()
    built.clear()
    assert _same([project_hdiv(v, p, mesh).dofs], [first])
    assert not shared & set(seen) and not built
