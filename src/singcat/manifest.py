"""The named-claim manifest: every concrete number the toolkit certifies,
grouped by the geometry it belongs to, with a runner per claim.

Provenance vocabulary: 'literature' marks values asserted by the source
geometry (verified here by independent computation), 'derived' marks values
fixed by an oracle computation inside this repository, 'trivial' marks
bookkeeping identities.

The claims on the rank-two extensions at the cone point read the one
cone-pair run of sodcheck (cone_pair, cone_pair_ext_table), which the two
double-point audits share.
"""

from __future__ import annotations

from . import models
from .findim import algebra_idempotents
from .homs import ext_dims, ext_space, hom_space, stable_hom, is_mcm, fiber_generators
from .matfac import knorrer, mf_from_module, mf_stable_hom
from .ncdef import SimpleCollection, flatness_filtration_check, run
from .sodcheck import (blowup_collections, check_exceptional,
                       check_orthogonal_to_deformation, cone_pair,
                       cone_pair_ext_table, les_propagate,
                       run_blowup_vanishing_manifest, verify_odp_hypotheses)
from .toric import cohomology, fan_library, intersect_curve, weil_is_cartier


# the verification suite names the rational field at every model, except
# the idempotent census which pins F5
class Claim:
    def __init__(self, cid, section, statement, provenance, runner):
        self.cid = cid
        self.section = section
        self.statement = statement
        self.provenance = provenance
        self.runner = runner

    def run(self, **kw):
        computed, expected, ok = self.runner(**kw)
        return {
            "claim_id": self.cid,
            "statement": self.statement,
            "computed": computed,
            "expected": expected,
            "provenance": self.provenance,
            "verdict": "pass" if ok else "fail",
        }


# -- the one-dimensional local models ----------------------------------------


def _claim_x0(**kw):
    A = models.dual_numbers("Q")
    V1 = models.point_module(A)
    d = stable_hom(V1, V1).dim
    X = mf_from_module(V1)
    pair = mf_stable_hom(X, X)
    computed = {"stable_end_dim": d, "mf_dims": list(pair)}
    expected = {"stable_end_dim": 1, "mf_dims": [1, 1]}
    return computed, expected, computed == expected


def _claim_x1(**kw):
    B = models.node_curve("Q")
    Mz, Mw = models.branch_module_z(B), models.branch_module_w(B)
    Xz, Xw = mf_from_module(Mz), mf_from_module(Mw)
    computed = {
        "stable_hom_mz_mw": stable_hom(Mz, Mw).dim,
        "stable_end_mz": stable_hom(Mz, Mz).dim,
        "mf_pair_mz_mw": list(mf_stable_hom(Xz, Xw)),
    }
    expected = {"stable_hom_mz_mw": 0, "stable_end_mz": 1,
                "mf_pair_mz_mw": [0, 1]}
    return computed, expected, computed == expected


def _claim_y1(**kw):
    C = models.nonsplit_curve("Q")
    Cp = models.normalization_module(C)
    S = stable_hom(Cp, Cp)
    alg = S.algebra()
    tmat = [[C.zero(), C.one()], [C.parse("-z-1"), C.zero()]]
    tco = S.coords(tmat)
    t2_plus_1 = alg.add(alg.mul(tco, tco), alg.unit)
    q_idems = len(algebra_idempotents(alg))
    C5 = models.nonsplit_curve("F5")
    S5 = stable_hom(models.normalization_module(C5), models.normalization_module(C5))
    f5_idems = len(algebra_idempotents(S5.algebra()))
    computed = {
        "stable_end_dim": S.dim,
        "t_squared_plus_one_is_zero": all(alg.field.is_zero(c) for c in t2_plus_1),
        "idempotents_over_Q": q_idems,
        "idempotents_over_F5": f5_idems,
    }
    expected = {"stable_end_dim": 2, "t_squared_plus_one_is_zero": True,
                "idempotents_over_Q": 2, "idempotents_over_F5": 4}
    return computed, expected, computed == expected


def _claim_x2(**kw):
    A = models.dual_numbers("Q")
    V1 = models.point_module(A)
    X = mf_from_module(V1)
    K = knorrer(X, "x", "y")
    from .quotient import parse_ring
    from .modules import FPModule
    R2 = parse_ring("Q[z,x,y]/(z^2+x*y)")
    OL = FPModule.from_submodule(R2, [[R2.parse("x")], [R2.parse("z")]],
                                 ambient_rank=1, ambient_degrees=[0])
    plane = FPModule.cyclic(R2, [R2.parse("x"), R2.parse("z")], degree=0)
    computed = {
        "knorrer_valid": K.is_valid(),
        "dims_preserved": mf_stable_hom(K, K) == mf_stable_hom(X, X),
        "reflexive_is_mcm": is_mcm(OL)[0],
        "structure_sheaf_is_mcm": is_mcm(plane)[0],
        "matches_plane_module": list(mf_stable_hom(K, mf_from_module(OL))),
    }
    expected = {"knorrer_valid": True, "dims_preserved": True,
                "reflexive_is_mcm": True, "structure_sheaf_is_mcm": False,
                "matches_plane_module": [1, 1]}
    return computed, expected, computed == expected


def _claim_x3(**kw):
    B = models.node_curve("Q")
    Mz, Mw = models.branch_module_z(B), models.branch_module_w(B)
    Xz, Xw = mf_from_module(Mz), mf_from_module(Mw)
    Kz, Kw = knorrer(Xz, "x", "y"), knorrer(Xw, "x", "y")
    from .quotient import parse_ring
    from .modules import FPModule
    R = parse_ring("Q[z,w,x,y]/(z*w+x*y)")
    plane_xw = FPModule.from_submodule(R, [[R.parse("x")], [R.parse("w")]],
                                       ambient_rank=1, ambient_degrees=[0])
    torsion = FPModule.cyclic(R, [R.parse("x"), R.parse("w")], degree=0)
    computed = {
        "pair_dims_preserved": mf_stable_hom(Kz, Kw) == mf_stable_hom(Xz, Xw),
        "self_dims_preserved": mf_stable_hom(Kz, Kz) == mf_stable_hom(Xz, Xz),
        "matches_plane_module": list(mf_stable_hom(Kz, mf_from_module(plane_xw))),
        "reflexive_is_mcm": is_mcm(plane_xw)[0],
        "structure_sheaf_is_mcm": is_mcm(torsion)[0],
    }
    expected = {"pair_dims_preserved": True, "self_dims_preserved": True,
                "matches_plane_module": [1, 0], "reflexive_is_mcm": True,
                "structure_sheaf_is_mcm": False}
    return computed, expected, computed == expected


def _claim_y3(**kw):
    C = models.nonsplit_curve("Q")
    Cp = models.normalization_module(C)
    X = mf_from_module(Cp)
    K = knorrer(X, "x", "y")
    computed = {"curve_dims": list(mf_stable_hom(X, X)),
                "threefold_dims": list(mf_stable_hom(K, K)),
                "knorrer_valid": K.is_valid()}
    expected = {"curve_dims": [2, 2], "threefold_dims": [2, 2],
                "knorrer_valid": True}
    return computed, expected, computed == expected


# -- the cone point: rank-one modules and their extensions ---------------------


def _claim_cone_vanishing(**kw):
    fan, div, _ = fan_library("coneP1xP1_projective")
    combo = lambda a, b: div["O(1,0)"].scale(a) + div["O(0,1)"].scale(b)
    rows = {}
    ok = True
    for (a, b) in [(-1, 0), (-2, 0), (-1, 1), (0, -1), (0, -2), (1, -1)]:
        row = cohomology(fan, combo(a, b))
        rows[f"O({a},{b})"] = list(row)
        ok = ok and all(h == 0 for h in row)
    rows["O"] = list(cohomology(fan, combo(0, 0)))
    ok = ok and rows["O"] == [1, 0, 0, 0]
    return rows, "all listed rows vanish; the structure sheaf has (1,0,0,0)", ok


def _claim_cone_extensions(**kw):
    coll, report = cone_pair()
    state = report.states[1]
    ext1 = state.ext1_dims()

    def vanish(a, G):
        return (all(ext1[(a, j)] == 0 for j in range(len(coll)))
                and all(ext_space(G, L, p).graded_dim(0) == 0
                        for p in (2, 3) for L in coll.modules))

    L1, L2 = coll.modules
    G1, G2 = state.components

    def hom(G, L):
        # the sheaf-level Hom: degree zero, as every such Hom is infinite
        return hom_space(G, L, mode="graded0").dim

    computed = {
        "hom_G1": [hom(G1, L1), hom(G1, L2)],
        "hom_G2": [hom(G2, L1), hom(G2, L2)],
        "ext_G1_vanish": vanish(0, G1),
        "ext_G2_vanish": vanish(1, G2),
    }
    expected = {"hom_G1": [1, 0], "hom_G2": [0, 1],
                "ext_G1_vanish": True, "ext_G2_vanish": True}
    return computed, expected, computed == expected


def _claim_cone_ext_table(**kw):
    C = models.cone_ring("Q")
    L1, L2 = models.cone_L1(C), models.cone_L2(C)
    self_dims = ext_dims(L1, L1, 6, p_min=1)
    cross_dims = ext_dims(L1, L2, 6, p_min=1)
    swap_self = ext_dims(L2, L2, 6, p_min=1)
    swap_cross = ext_dims(L2, L1, 6, p_min=1)
    computed = {
        "self": [self_dims[p] for p in range(1, 7)],
        "cross": [cross_dims[p] for p in range(1, 7)],
        "swap_symmetric": self_dims == swap_self and cross_dims == swap_cross,
        "two_periodic": all(self_dims[p] == self_dims[p + 2] for p in range(1, 5))
        and all(cross_dims[p] == cross_dims[p + 2] for p in range(1, 5)),
    }
    expected = {"self": [0, 1, 0, 1, 0, 1], "cross": [1, 0, 1, 0, 1, 0],
                "swap_symmetric": True, "two_periodic": True}
    return computed, expected, computed == expected


def _claim_corollary_les(**kw):
    # global tables equal the local ones under the verified global vanishing;
    # the two sequences then force the extension-object rows
    self_row = [1, 0, 1, 0, 1]
    cross_row = [0, 1, 0, 1, 0]
    hom_f1_l1, _ = les_propagate(self_row, cross_row, 3)
    ann = {p: (1, "the connecting map is injective because the extension "
               "class generates the target") for p in (0, 2)}
    hom_f1_l2, _notes = les_propagate(cross_row, self_row, 3, ann)
    ann2 = {p: (1, "two-periodicity transports the degree-zero injectivity")
            for p in (1, 3)}
    ext_f1_l1, _ = les_propagate(self_row, cross_row, 3, ann2)
    computed = {
        "hom_F1_L1": hom_f1_l1[0],
        "hom_F1_L2_row": hom_f1_l2,
        "full_F1_L1_row": ext_f1_l1,
    }
    expected = {
        "hom_F1_L1": 1,
        "hom_F1_L2_row": [0, 0, 0, 0],
        "full_F1_L1_row": [1, 0, 0, 0],
    }
    return computed, expected, computed == expected


def _claim_corollary_ff(**kw):
    dims = {f"F{a+1}-F{b+1}": list(row)
            for (a, b), row in cone_pair_ext_table().items()}
    ok = all(all(v == 0 for v in row) for row in dims.values())
    return dims, "all positive-degree self-extension rows vanish", ok


def _claim_generators(m=None, **kw):
    C = models.cone_ring("Q")
    origin = [C.parse(v) for v in ["x", "y", "z", "w"]]
    ms = [m] if m else [1, 2, 3, 4]
    computed = {}
    ok = True
    for mm in ms:
        M = models.cone_power_ideal(C, mm)
        n = fiber_generators(M, origin)
        computed[f"m={mm}"] = n
        ok = ok and n == mm + 1
    return computed, {f"m={mm}": mm + 1 for mm in ms}, ok


# -- the two projective geometries ---------------------------------------------


def _claim_71_intersections(**kw):
    fan, div, walls = fan_library("coneP1xP1_smallres")
    i1 = intersect_curve(div["O(0,1)"], walls["C"], fan)
    i2 = intersect_curve(div["O(1,0)"], walls["C"], fan)
    return {"(D'1,C)": i1, "(D'2,C)": i2}, {"(D'1,C)": 1, "(D'2,C)": -1}, \
        (i1, i2) == (1, -1)


def _claim_71_cartier(**kw):
    fan, div, _ = fan_library("coneP1xP1_projective")
    ok = True
    table = {}
    for a in range(-3, 4):
        for b in range(-3, 4):
            D = div["O(1,0)"].scale(a) + div["O(0,1)"].scale(b)
            got = weil_is_cartier(fan, D)
            table[f"({a},{b})"] = got
            ok = ok and got == (a == b)
    return table, "invertible exactly on the diagonal classes", ok


def _claim_71_audit(**kw):
    report = verify_odp_hypotheses("quadric_cone")
    computed = {
        "conditions_pass": all(c["pass"] for c in report["conditions"].values()),
        "dim_R": report["conclusions"]["dim_R"],
        "radical_square_zero": report["conclusions"]["radical_square_zero"],
        "flatness": report["conclusions"]["flatness_filtration"],
        "ext_FF_vanish": report["conclusions"]["ext_FF_vanish"],
    }
    expected = {"conditions_pass": True, "dim_R": 4,
                "radical_square_zero": True, "flatness": True,
                "ext_FF_vanish": True}
    return computed, expected, computed == expected


def _claim_71_sod_rows(**kw):
    fan, div, _ = fan_library("coneP1xP1_projective")
    combo = lambda a, b: div["O(1,0)"].scale(a) + div["O(0,1)"].scale(b)
    rows = {
        "O(-1,-1)": list(cohomology(fan, combo(-1, -1))),
        "O(-2,-2)": list(cohomology(fan, combo(-2, -2))),
        "O": list(cohomology(fan, combo(0, 0))),
    }
    ok = (all(h == 0 for h in rows["O(-1,-1)"])
          and all(h == 0 for h in rows["O(-2,-2)"])
          and rows["O"] == [1, 0, 0, 0])
    return rows, "twisted rows vanish; the structure sheaf row is (1,0,0,0)", ok


def _claim_72_manifest(**kw):
    results = run_blowup_vanishing_manifest()
    bad = [r for r in results if not r["pass"]]
    return ({"entries": len(results), "failures": bad},
            {"entries": ">= 20", "failures": []},
            len(results) >= 20 and not bad)


def _claim_72_h1(**kw):
    fan, _walls, _eight, _five, (D1, D2) = blowup_collections()
    row = cohomology(fan, D2 - D1)
    return {"H^p(-D1+D2)": list(row)}, {"H^p(-D1+D2)": [0, 1, 0, 0]}, \
        list(row) == [0, 1, 0, 0]


def _claim_72_eight(**kw):
    fan, _walls, eight, _five, _D = blowup_collections()
    report = check_exceptional(fan, [d for _n, d in eight], [n for n, _d in eight])
    return ({"exceptional": report["exceptional"],
             "witnesses": report["witnesses"]},
            {"exceptional": True, "witnesses": []}, report["exceptional"])


def _claim_72_five(**kw):
    fan, _walls, _eight, five, _D = blowup_collections()
    report = check_exceptional(fan, [d for _n, d in five], [n for n, _d in five])
    return ({"exceptional": report["exceptional"], "strong": report["strong"]},
            {"exceptional": True, "strong": True}, report["strong"])


def _claim_72_orthogonality(**kw):
    fan, _walls, _eight, five, (D1, D2) = blowup_collections()
    report = check_orthogonal_to_deformation(fan, [d for _n, d in five],
                                             [D1, D2], [n for n, _d in five])
    return ({"rows": report["rows"], "pass": report["pass"]},
            {"pass": True, "rows": "all ten rows vanish"}, report["pass"])


def _claim_72_audit(**kw):
    report = verify_odp_hypotheses("blowup")
    computed = {name: cond["pass"] for name, cond in report["conditions"].items()}
    computed["conclusions"] = report["conclusions"]["dim_R"]
    return computed, {"intersection": True, "simple_collection": True,
                      "global_vanishing": True, "conclusions": 4}, report["pass"]


def _claim_73_node(**kw):
    B = models.node_surface("Q")
    coll = SimpleCollection([models.node_point_module(B)])
    rep = run(coll, max_iter=5)
    iso_ok = True
    for n in range(1, 5):
        state = rep.states[n]
        alg = state.algebra()
        oracle = models.truncated_node_algebra(B, n)
        block = state.hom_blocks()[(0, 0)]
        g = state.components[0].ngens

        def mult(name):
            p = B.parse(name)
            return [[p if a == b else B.zero() for a in range(g)] for b in range(g)]

        images = [list(alg.unit)]
        for name in ("x", "y"):
            image, acc = block.coords(mult(name)), list(alg.unit)
            for _ in range(n):
                acc = alg.mul(acc, image)
                images.append(list(acc))
        iso_ok = iso_ok and oracle.verify_isomorphism(alg, images)
        ok, _detail = flatness_filtration_check(state)
        iso_ok = iso_ok and ok
    computed = {"outcome": rep.outcome, "trajectory": rep.dim_r_trajectory,
                "truncation_isomorphisms": iso_ok}
    expected = {"outcome": "non-terminated", "trajectory": [1, 3, 5, 7, 9],
                "truncation_isomorphisms": True}
    return computed, expected, computed == expected


MANIFEST = [
    Claim("x0-stable-end", "4", "the point module over the dual numbers has "
          "one-dimensional stable endomorphisms in both parities",
          "literature", _claim_x0),
    Claim("x1-stable-homs", "4", "the two branch modules of the node curve "
          "have orthogonal stable Homs and are shifts of each other",
          "literature", _claim_x1),
    Claim("y1-nonsplit-end", "4", "the normalization module has stable "
          "endomorphism algebra k[t]/(t^2+1); idempotents exist over F5 "
          "but not over Q", "literature", _claim_y1),
    Claim("x2-knorrer", "4", "doubling the dual-number factorization gives "
          "the surface double point and preserves stable dimensions",
          "literature", _claim_x2),
    Claim("x3-knorrer", "4", "doubling the node factorizations gives the "
          "threefold double point; plane modules are the reflexive "
          "generators", "literature", _claim_x3),
    Claim("y3-knorrer", "4", "the nonsplit curve doubles to the nonsplit "
          "threefold with stable dimensions (2,2)", "literature", _claim_y3),
    Claim("odp-rank-one-vanishing", "6", "the listed rank-one twists on the "
          "projective cone have no cohomology", "literature",
          _claim_cone_vanishing),
    Claim("odp-extension-objects", "6", "the two rank-two extensions have "
          "Hom dims (1,0)/(0,1) and no higher extensions against the "
          "rank-one modules", "literature", _claim_cone_extensions),
    Claim("odp-ext-table", "6", "self-extensions alternate 0,1 and "
          "cross-extensions alternate 1,0 up to degree six, symmetrically",
          "literature", _claim_cone_ext_table),
    Claim("odp-les-propagation", "6", "the long exact sequences with the "
          "injectivity annotations force the extension-object rows",
          "literature", _claim_corollary_les),
    Claim("odp-ff-vanishing", "6", "the direct sum of the two extensions "
          "has no positive self-extensions in degree zero", "literature",
          _claim_corollary_ff),
    Claim("remark-generators", "6", "the power module of the cone needs "
          "m+1 generators at the vertex", "literature", _claim_generators),
    Claim("quadric-intersections", "7.1", "the flopped curve meets the two "
          "ruling divisors with degrees +1 and -1", "literature",
          _claim_71_intersections),
    Claim("quadric-cartier", "7.1", "a rank-one class on the projective "
          "cone is invertible exactly when its bidegree is diagonal",
          "literature", _claim_71_cartier),
    Claim("quadric-audit", "7.1", "all double-point hypotheses hold and the "
          "parameter algebra is four-dimensional", "literature",
          _claim_71_audit),
    Claim("quadric-sod-rows", "7.1", "the diagonal twists flanking the "
          "deformation object have vanishing cohomology", "literature",
          _claim_71_sod_rows),
    Claim("blowup-vanishing", "7.2", "every cohomology row used by the two "
          "collection lemmas computes as claimed", "literature",
          _claim_72_manifest),
    Claim("blowup-h1", "7.2", "the mixed twist has exactly one "
          "first-cohomology class", "literature", _claim_72_h1),
    Claim("blowup-eight", "7.2", "the eight line bundles form an "
          "exceptional collection", "literature", _claim_72_eight),
    Claim("blowup-five", "7.2", "the five pushforward bundles form a strong "
          "exceptional collection", "literature", _claim_72_five),
    Claim("blowup-orthogonality", "7.2", "all ten duality-reduced rows "
          "against the deformation objects vanish", "literature",
          _claim_72_orthogonality),
    Claim("blowup-audit", "7.2", "all double-point hypotheses hold on the "
          "two-point blow-up geometry", "literature", _claim_72_audit),
    Claim("node-nontermination", "7.3", "the point deformation never "
          "terminates; its algebras are the monomial truncations of the "
          "node", "literature", _claim_73_node),
]


def claims_by_section(section=None, cid=None):
    out = []
    for c in MANIFEST:
        if section is not None and c.section != section:
            continue
        if cid is not None and cid not in c.cid:
            continue
        out.append(c)
    return out


def run_claims(section=None, cid=None, **kw):
    results = [c.run(**kw) for c in claims_by_section(section, cid)]
    return {
        "schema": "singcat-report/1",
        "claims": results,
        "pass": all(r["verdict"] == "pass" for r in results),
    }
