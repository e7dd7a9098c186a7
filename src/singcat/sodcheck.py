"""Exceptional-collection verification and the double-point hypothesis audit.

Objects of a collection are torus-invariant divisor classes on a registered
fan; pairwise Ext data between the line bundles O(A), O(B) is the exact
cohomology of B - A.  Long-exact-sequence propagation handles two-step
extension objects whose connecting ranks are either forced by vanishing or
supplied as explicit annotations; unforced ranks are reported as intervals,
never guessed.

The audit bundles tie everything together for the two geometries carrying a
non-factorial double point: the projective cone over a quadric surface and
the two-point blow-up of projective three-space contracted along the line
joining the centers.
"""

from __future__ import annotations

import copy
import functools

from . import models
from .homs import ext_space
from .ncdef import SimpleCollection, flatness_filtration_check, run, simple_check
from .toric import TDivisor, cohomology, divisor_from_combo, fan_library, intersect_curve


class SodError(ValueError):
    pass


# ---------------------------------------------------------------------------
# pairwise data for divisor-class collections


def divisor_ext_row(fan, A: TDivisor, B: TDivisor):
    """dims of Hom(O(A), O(B)[p]) for p = 0..rank, via H^p(B - A)."""
    return cohomology(fan, B - A)


def check_exceptional(fan, objects, names=None):
    """Exceptionality report for an ordered tuple of divisor classes.

    Verdicts: 'exceptional' needs End = k, no higher self-Ext, and total
    vanishing from later objects to earlier ones; 'strong' additionally
    kills positive-degree maps in the allowed direction.
    """
    n = len(objects)
    names = names or [f"obj{i}" for i in range(n)]
    table = {}
    for i in range(n):
        for j in range(n):
            table[(i, j)] = divisor_ext_row(fan, objects[i], objects[j])
    witnesses = []
    strong_witnesses = []
    for i in range(n):
        row = table[(i, i)]
        if row[0] != 1 or any(h != 0 for h in row[1:]):
            witnesses.append({"pair": (names[i], names[i]), "row": row,
                              "reason": "object is not exceptional"})
    for i in range(n):
        for j in range(n):
            row = table[(i, j)]
            if i > j and any(h != 0 for h in row):
                p = next(p for p, h in enumerate(row) if h != 0)
                witnesses.append({"pair": (names[i], names[j]), "degree": p,
                                  "dim": row[p],
                                  "reason": "later object maps to earlier one"})
            if i <= j and i != j and any(h != 0 for h in row[1:]):
                p = next(p for p, h in enumerate(row) if p > 0 and h != 0)
                strong_witnesses.append({"pair": (names[i], names[j]),
                                         "degree": p, "dim": row[p]})
    report = {
        "objects": list(names),
        "table": {f"{names[i]}->{names[j]}": list(table[(i, j)])
                  for i in range(n) for j in range(n)},
        "exceptional": not witnesses,
        "strong": not witnesses and not strong_witnesses,
        "witnesses": witnesses,
        "strong_witnesses": strong_witnesses,
    }
    return report


def check_orthogonal_to_deformation(fan, c_primes, d_divisors, names=None):
    """Vanishing of Hom(L_i, O(C_j)[p]) for all p via H^p(Y, C'_j + D_i).

    L_i is the pushforward of O(-D_i); duality moves the computation to the
    resolution.  Orthogonality of the extension objects F_i then follows
    from the two defining short exact sequences and is reported as derived.
    """
    names = names or [f"C{j+1}" for j in range(len(c_primes))]
    rows = {}
    ok = True
    witnesses = []
    for i, D in enumerate(d_divisors):
        for j, Cp in enumerate(c_primes):
            row = cohomology(fan, Cp + D)
            rows[f"L{i+1}-vs-{names[j]}"] = list(row)
            if any(h != 0 for h in row):
                ok = False
                p = next(p for p, h in enumerate(row) if h != 0)
                witnesses.append({"pair": (f"L{i+1}", names[j]), "degree": p,
                                  "dim": row[p]})
    return {
        "rows": rows,
        "pass": ok,
        "witnesses": witnesses,
        "derived": "orthogonality of the rank-two extensions follows from "
                   "the vanishing rows through their defining extensions",
    }


# ---------------------------------------------------------------------------
# long exact sequence propagation


class LESError(ValueError):
    pass


def les_propagate(first, second, p_max, annotations=None):
    """Dimensions for the middle of a two-sided long exact sequence.

    For 0 -> A -> E -> B -> 0 and a contravariant functor with connecting
    maps delta_p: T^p(second) -> T^{p+1}(first), pass first = dims for B,
    second = dims for A; then

        dim T^p(E) = (first[p] - rank delta_{p-1}) + (second[p] - rank delta_p).

    A rank is forced when its source or target vanishes; otherwise it must
    be annotated as {p: (rank, statement)}.  Unforced, unannotated ranks
    give (lo, hi) intervals.  Covariant sequences pass first = dims for A
    and second = dims for B.
    """
    annotations = annotations or {}
    first = list(first) + [0] * (p_max + 2 - len(first))
    second = list(second) + [0] * (p_max + 2 - len(second))
    ranks = {}
    notes = {}
    for p in range(-1, p_max + 1):
        if p < 0:
            ranks[p] = 0
            continue
        src, tgt = second[p], first[p + 1]
        if src == 0 or tgt == 0:
            ranks[p] = 0
            continue
        if p in annotations:
            r, statement = annotations[p]
            if not (0 <= r <= min(src, tgt)):
                raise LESError(f"annotated rank {r} at degree {p} violates "
                               f"exactness bounds 0..{min(src, tgt)}")
            ranks[p] = r
            notes[p] = statement
            continue
        ranks[p] = None  # unforced
    out = []
    for p in range(p_max + 1):
        r_prev, r_here = ranks[p - 1], ranks[p]
        if r_prev is None or r_here is None:
            lo_prev, hi_prev = ((0, min(second[p - 1], first[p]))
                                if r_prev is None else (r_prev, r_prev))
            lo_here, hi_here = ((0, min(second[p], first[p + 1]))
                                if r_here is None else (r_here, r_here))
            lo = (first[p] - hi_prev) + (second[p] - hi_here)
            hi = (first[p] - lo_prev) + (second[p] - lo_here)
            out.append((max(lo, 0), hi))
        else:
            out.append((first[p] - r_prev) + (second[p] - r_here))
    return out, notes


# ---------------------------------------------------------------------------
# the named vanishing manifest for the blow-up geometry


def blowup_vanishing_manifest():
    """Every cohomology claim used by the two collection lemmas on the
    two-point blow-up, as (id, combo, kind, expected) entries.

    kind 'all': every degree vanishes; 'positive': degrees > 0 vanish and
    h^0 equals `expected`; 'profile': the full vector equals `expected`.
    """
    entries = []

    def add(eid, h, e1, e2, kind, expected=None):
        entries.append({"id": eid, "combo": {"H": h, "E1": e1, "E2": e2},
                        "kind": kind, "expected": expected})

    # mutual vanishing among the five twisted bundles (both lemmas, full)
    add("E1-E2", 0, 1, -1, "all")
    add("mH+E1", -1, 1, 0, "all")
    add("mH+E2", -1, 0, 1, "all")
    add("m2H+E1+E2", -2, 1, 1, "all")
    add("m2H+2E1", -2, 2, 0, "all")
    add("m2H+2E2", -2, 0, 2, "all")
    add("m3H+2E1+E2", -3, 2, 1, "all")
    add("m3H+E1+2E2", -3, 1, 2, "all")
    # the eight-object collection adds these cross terms
    add("m2H+2E1+2E2", -2, 2, 2, "all")
    add("mH+E1+E2", -1, 1, 1, "all")
    add("m2H+E1", -2, 1, 0, "all")
    add("m2H+E2", -2, 0, 1, "all")
    add("mH", -1, 0, 0, "all")
    add("mE1", 0, -1, 0, "all")
    add("mE2", 0, 0, -1, "all")
    add("m2H+2E1+E2", -2, 2, 1, "all")
    add("m2H+E1+2E2", -2, 1, 2, "all")
    add("m4H+3E1+2E2", -4, 3, 2, "all")
    add("m4H+2E1+3E2", -4, 2, 3, "all")
    # orthogonality to the deformation objects adds three more
    add("m3H+2E1+2E2", -3, 2, 2, "all")
    add("m3H+E1+E2", -3, 1, 1, "all")
    add("m3H+2E2", -3, 0, 2, "all")
    # simple-collection conditions
    add("mH+2E1+E2", -1, 2, 1, "all")
    add("H-2E1-E2", 1, -2, -1, "profile", (0, 1, 0, 0))
    # strong-exceptionality direction: positive degrees vanish
    # h^0 values are the point-condition counts on forms of P^3: a reduced
    # center imposes one condition, a doubled center imposes four
    add("E2-E1", 0, -1, 1, "positive", 0)
    add("H-E1", 1, -1, 0, "positive", 4 - 1)
    add("H-E2", 1, 0, -1, "positive", 4 - 1)
    add("2H-E1-E2", 2, -1, -1, "positive", 10 - 1 - 1)
    add("2H-2E2", 2, 0, -2, "positive", 10 - 4)
    add("3H-2E1-E2", 3, -2, -1, "positive", 20 - 4 - 1)
    add("3H-E1-2E2", 3, -1, -2, "positive", 20 - 1 - 4)
    add("structure-sheaf", 0, 0, 0, "positive", 1)
    return entries


def run_blowup_vanishing_manifest():
    fan, div, _walls = fan_library("blowupP3_2pts")
    results = []
    for entry in blowup_vanishing_manifest():
        D = divisor_from_combo(div, entry["combo"])
        row = cohomology(fan, D)
        if entry["kind"] == "all":
            ok = all(h == 0 for h in row)
        elif entry["kind"] == "positive":
            ok = all(h == 0 for h in row[1:]) and row[0] == entry["expected"]
        else:
            ok = tuple(row) == tuple(entry["expected"])
        results.append({"id": entry["id"], "computed": list(row),
                        "kind": entry["kind"], "expected": entry["expected"],
                        "pass": ok})
    return results


# ---------------------------------------------------------------------------
# collection data for the two geometries


def blowup_collections():
    """The 8-term collection on the resolution and the 5-term pushforward
    collection, as divisor dictionaries on the blow-up fan."""
    fan, div, walls = fan_library("blowupP3_2pts")
    combo = lambda h, e1, e2: divisor_from_combo(div, {"H": h, "E1": e1, "E2": e2})
    eight = [
        ("O(-3H+2E1+E2)", combo(-3, 2, 1)),
        ("O(-3H+E1+2E2)", combo(-3, 1, 2)),
        ("O(-2H+E1+E2)", combo(-2, 1, 1)),
        ("O(-H+E1)", combo(-1, 1, 0)),
        ("O(-H+E2)", combo(-1, 0, 1)),
        ("O(-H+E1+E2)", combo(-1, 1, 1)),
        ("O", combo(0, 0, 0)),
        ("O(H-E1-E2)", combo(1, -1, -1)),
    ]
    five = [
        ("O(C1)", combo(-3, 2, 1)),
        ("O(C2)", combo(-3, 1, 2)),
        ("O(C3)", combo(-2, 1, 1)),
        ("O(C4)", combo(-1, 1, 0)),
        ("O(C5)", combo(0, 0, 0)),
    ]
    D1 = combo(-1, 1, 1)
    D2 = combo(0, -1, 0)
    return fan, walls, eight, five, (D1, D2)


def check_collection_manifest(data: dict):
    """Verify a collection described by a manifest dictionary.

    Expected shape:
        {"fan": <library name>,
         "objects": [{"name": .., "combo": {"H": -3, "E1": 2, ..}}, ..],
         "check": "exceptional" | "strong",
         "orthogonal_to": [{"name": .., "combo": {..}}, ..]}   # optional

    Combos are integer combinations of the fan's named divisors.  Returns
    the exceptionality report, extended with the orthogonality rows when
    deformation divisors are supplied.
    """
    fan, div, _walls = fan_library(data["fan"])
    objects = [divisor_from_combo(div, o["combo"]) for o in data["objects"]]
    names = [o["name"] for o in data["objects"]]
    report = check_exceptional(fan, objects, names)
    want_strong = data.get("check", "exceptional") == "strong"
    report["pass"] = report["strong"] if want_strong else report["exceptional"]
    if data.get("orthogonal_to"):
        dvs = [divisor_from_combo(div, o["combo"]) for o in data["orthogonal_to"]]
        orth = check_orthogonal_to_deformation(fan, objects, dvs, names)
        report["orthogonality"] = orth
        report["pass"] = report["pass"] and orth["pass"]
    return report


# ---------------------------------------------------------------------------
# hypothesis audits


def _local_cone_conditions():
    """Module-side conditions at the double point: the simple collection and
    the rank-one extension dimensions on the projective cone model."""
    P = models.projective_cone_ring("Q")
    L1, L2 = models.cone_L1(P), models.cone_L2(P)
    ok, matrix = simple_check([L1, L2])
    ext01 = ext_space(L1, L2, 1).graded_dim(0)
    ext10 = ext_space(L2, L1, 1).graded_dim(0)
    ext00 = ext_space(L1, L1, 1).graded_dim(0)
    ext11 = ext_space(L2, L2, 1).graded_dim(0)
    ext1 = [[ext00, ext01], [ext10, ext11]]
    return {
        "simple_collection": ok,
        "hom_matrix": matrix,
        "ext1_matrix": ext1,
        "pass": ok and ext1 == [[0, 1], [1, 0]],
    }


@functools.cache
def _deformation_conclusions():
    """Run the iteration on the cone pair and verify the conclusions.

    Both audits share this local model, so it runs once per process;
    callers copy the cached dict before handing it out."""
    P = models.projective_cone_ring("Q")
    coll = SimpleCollection([models.cone_L1(P), models.cone_L2(P)])
    report = run(coll, max_iter=8)
    state = report.final_state
    alg = report.algebra()
    rad = alg.radical()
    rad_sq = alg.subspace_dim(alg.multiply_subspaces(rad, rad))
    flat_ok, flat_detail = flatness_filtration_check(state)
    ext_ff = {}
    for p in (1, 2, 3):
        dims = []
        for Fi in state.components:
            for Fj in state.components:
                dims.append(ext_space(Fi, Fj, p).graded_dim(0))
        ext_ff[p] = max(dims)
    return {
        "terminated": report.outcome == "terminated",
        "termination_step": report.final_step,
        "dim_R": alg.dim,
        "dim_R_trajectory": report.dim_r_trajectory,
        "radical_square_zero": rad_sq == 0 and len(rad) == 2,
        "flatness_filtration": flat_ok,
        "flatness_detail": flat_detail,
        "ext_FF_degree0": ext_ff,
        "ext_FF_vanish": all(v == 0 for v in ext_ff.values()),
    }


def verify_odp_hypotheses(bundle: str = "quadric_cone"):
    """Per-condition audit for the two geometries.

    Condition 1: intersection numbers against the contracted curve.
    Condition 2: the rank-one modules form a simple collection.
    Condition 3: global vanishing of the mixed pushforward twists.
    Conclusions: the deformation terminates with the four-dimensional
    parameter algebra, flat with vanishing self-extensions.
    """
    report = {"bundle": bundle, "conditions": {}, "conclusions": {}}
    if bundle == "quadric_cone":
        fan, div, walls = fan_library("coneP1xP1_smallres")
        c = walls["C"]
        i1 = intersect_curve(div["O(0,1)"], c, fan)
        i2 = intersect_curve(div["O(1,0)"], c, fan)
        report["conditions"]["intersection"] = {
            "(D'1,C)": i1, "(D'2,C)": i2, "pass": (i1, i2) == (1, -1)}
        report["conditions"]["simple_collection"] = _local_cone_conditions()
        pfan, pdiv, _ = fan_library("coneP1xP1_projective")
        combo = lambda a, b: pdiv["O(1,0)"].scale(a) + pdiv["O(0,1)"].scale(b)
        rows = {
            "O(1,-1)": cohomology(pfan, combo(1, -1)),
            "O(-1,1)": cohomology(pfan, combo(-1, 1)),
            "O": cohomology(pfan, combo(0, 0)),
        }
        cond3 = (all(h == 0 for h in rows["O(1,-1)"])
                 and all(h == 0 for h in rows["O(-1,1)"])
                 and rows["O"] == (1, 0, 0, 0))
        report["conditions"]["global_vanishing"] = {
            "rows": {k: list(v) for k, v in rows.items()}, "pass": cond3}
    elif bundle == "blowup":
        fan, walls, _eight, _five, (D1, D2) = blowup_collections()
        i1 = intersect_curve(D1, walls["l"], fan)
        i2 = intersect_curve(D2, walls["l"], fan)
        report["conditions"]["intersection"] = {
            "(D1,l)": i1, "(D2,l)": i2, "pass": (i1, i2) == (1, -1)}
        # global Hom data of the pushforwards via the resolution
        h12 = cohomology(fan, D1 - D2)
        h21 = cohomology(fan, D2 - D1)
        simple_pass = h12[0] == 0 and h21[0] == 0
        report["conditions"]["simple_collection"] = {
            "hom(L1,L2)_sections": h12[0],
            "hom(L2,L1)_sections": h21[0],
            "local_model": _local_cone_conditions(),
            "pass": simple_pass,
        }
        report["conditions"]["global_vanishing"] = _blowup_condition3(fan, D1, D2)
    else:
        raise SodError(f"unknown bundle {bundle!r}")
    report["conclusions"] = copy.deepcopy(_deformation_conclusions())
    report["pass"] = (all(c["pass"] for c in report["conditions"].values())
                      and report["conclusions"]["terminated"]
                      and report["conclusions"]["dim_R"] == 4
                      and report["conclusions"]["flatness_filtration"]
                      and report["conclusions"]["ext_FF_vanish"])
    return report


def _blowup_condition3(fan, D1, D2):
    """H^p of the pushforward twists on the contraction.

    The contracted curve has normal degree (-1,-1): a twist of degree >= -1
    along the curve pushes forward with vanishing higher direct images, so
    the downstairs cohomology equals the upstairs one.  The degree -2 twist
    needs the five-term sequence; its one-dimensional first cohomology maps
    onto the length-one higher direct image (restriction to the curve is
    surjective on first cohomology), which forces the downstairs vanishing.
    """
    walls = fan.walls()
    wall = next(rs for rs in walls if rs == (1, 2))
    out = {"rows": {}, "annotations": []}
    ok = True
    for name, G in [("-D1+D2", D2 - D1), ("D1-D2", D1 - D2), ("0", D1 - D1)]:
        g = intersect_curve(G, wall, fan)
        row = cohomology(fan, G)
        out["rows"][name] = {"curve_degree": g, "upstairs": list(row)}
        if g >= -1:
            downstairs = list(row)
            out["rows"][name]["downstairs"] = downstairs
            if any(h != 0 for h in downstairs[1:]):
                ok = False
        else:
            # five-term exact sequence with the surjectivity annotation
            if g != -2:
                ok = False
                continue
            length_r1 = 1  # degree -2 on a (-1,-1) curve
            surj = row[1] >= length_r1
            forced_h1 = row[1] - length_r1 if surj else None
            out["annotations"].append({
                "twist": name,
                "statement": "restriction to the contracted curve is "
                             "surjective on first cohomology",
                "rank": length_r1,
            })
            downstairs = [row[0], forced_h1, row[2], row[3]]
            out["rows"][name]["downstairs"] = downstairs
            if forced_h1 != 0 or any(h != 0 for h in row[2:]):
                ok = False
    out["pass"] = ok
    return out
