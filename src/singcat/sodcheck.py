"""Exceptional-collection verification and the double-point hypothesis audit.

Objects of a collection are torus-invariant divisor classes on a registered
fan; pairwise Ext data between the line bundles O(A), O(B) is the exact
cohomology of B - A.  Long-exact-sequence propagation handles two-step
extension objects whose connecting ranks are either forced by vanishing or
supplied as explicit annotations; unforced ranks are reported as intervals,
never guessed.

One audit, odp_audit, checks the hypotheses at a threefold X with an
ordinary double point, given as the small contraction of a (-1,-1) curve on
a smooth fan (toric.contract_wall): the curve degrees of D1 and D2 on the
resolution, the local model, and the global vanishing on X itself.  One
table, ODP_BUNDLES, names the two geometries it is run on: the projective
cone over a quadric surface and the two-point blow-up of projective
three-space contracted along the line joining the centers.  The local
model is the cone pair L1, L2 and its rank-two extensions F1, F2:
cone_pair builds the collection and its deformation run once per process,
and cone_pair_ext_table holds the one table of dim Ext^p(F_a, F_b)_0.  The
audit and the section 6 claims of the manifest read them.
"""

from __future__ import annotations

import copy
import functools

from . import models
from .homs import HomError, ext_space
from .ncdef import SimpleCollection, flatness_filtration_check, run
from .toric import (TDivisor, cohomology, contract_wall, divisor_from_combo,
                    fan_library, intersect_curve)


class SodError(ValueError):
    pass


# ---------------------------------------------------------------------------
# pairwise data for divisor-class collections


def check_exceptional(fan, objects, names=None):
    """Exceptionality report for an ordered tuple of divisor classes.

    Verdicts: 'exceptional' needs End = k, no higher self-Ext, and total
    vanishing from later objects to earlier ones; 'strong' additionally
    kills positive-degree maps in the allowed direction.
    """
    n = len(objects)
    names = names or [f"obj{i}" for i in range(n)]
    # Hom(O(A), O(B)[p]) = H^p(B - A)
    table = {}
    for i in range(n):
        for j in range(n):
            table[(i, j)] = cohomology(fan, objects[j] - objects[i])
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


# the audited double points: bundle -> (smooth fan, curve, D1 combo, D2 combo)
ODP_BUNDLES = {
    "quadric_cone": ("coneP1xP1_smallres", "C", {"O(0,1)": 1}, {"O(1,0)": 1}),
    "blowup": ("blowupP3_2pts", "l", {"H": -1, "E1": 1, "E2": 1}, {"E1": -1}),
}


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
    _name, _curve, c1, c2 = ODP_BUNDLES["blowup"]
    D1, D2 = divisor_from_combo(div, c1), divisor_from_combo(div, c2)
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
    deformation divisors are supplied; SodError on any other shape.
    """
    try:
        fan, div, _walls = fan_library(data["fan"])
        objects = [divisor_from_combo(div, o["combo"]) for o in data["objects"]]
        names = [o["name"] for o in data["objects"]]
        dvs = [divisor_from_combo(div, o["combo"])
               for o in data.get("orthogonal_to") or []]
    except KeyError as exc:
        raise SodError(f"collection manifest without the key {exc}") from None
    except TypeError as exc:
        raise SodError(f"collection manifest of the wrong shape: {exc}") from None
    check = data.get("check", "exceptional")
    if check not in ("exceptional", "strong"):
        raise SodError(f"unknown check {check!r}: use 'exceptional' or 'strong'")
    report = check_exceptional(fan, objects, names)
    report["pass"] = report[check]
    if dvs:
        orth = check_orthogonal_to_deformation(fan, objects, dvs, names)
        report["orthogonality"] = orth
        report["pass"] = report["pass"] and orth["pass"]
    return report


# ---------------------------------------------------------------------------
# hypothesis audits


@functools.cache
def cone_pair():
    """The local model at the double point, built once per process: the
    simple collection L1 = (x, z), L2 = (x, w) over the projective cone and
    its deformation run, whose state 1 holds the rank-two extensions F1, F2.

    Every Ext^1 class the run extends along is checked to be nonzero."""
    P = models.projective_cone_ring("Q")
    coll = SimpleCollection([models.cone_L1(P), models.cone_L2(P)])
    for space, items in coll.ext1.values():
        for it in items:
            if space.element_class_is_zero(space.item_vec(it)):
                raise HomError("zero class in the Ext^1 basis of the cone pair")
    return coll, run(coll, max_iter=8)


@functools.cache
def cone_pair_ext_table():
    """table[(a, b)] = dim Ext^p(F_a, F_b)_0 for p = 1, 2, 3 on the final
    components of the cone-pair run."""
    comps = cone_pair()[1].final_state.components
    table = {}
    for a, Fa in enumerate(comps):
        for b, Fb in enumerate(comps):
            # Ext^3 first: on the 2-periodic resolution its cocycles are
            # Ext^1's up to a higher degree, read once for both
            dims = {p: ext_space(Fa, Fb, p).graded_dim(0) for p in (3, 2, 1)}
            table[(a, b)] = (dims[1], dims[2], dims[3])
    return table


def _local_cone_conditions():
    """Module-side conditions at the double point: the simple collection and
    the rank-one extension dimensions on the projective cone model."""
    coll, _report = cone_pair()
    homs = [list(row) for row in coll.hom_matrix]
    ext1 = [[len(coll.ext1[(i, j)][1]) for j in range(2)] for i in range(2)]
    simple = homs == [[1, 0], [0, 1]]
    return {
        "simple_collection": simple,
        "hom_matrix": homs,
        "ext1_matrix": ext1,
        "pass": simple and ext1 == [[0, 1], [1, 0]],
    }


@functools.cache
def _deformation_conclusions():
    """Verify the conclusions on the cone-pair run.

    Both audits share this local model, so it runs once per process;
    callers copy the cached dict before handing it out."""
    report = cone_pair()[1]
    state = report.final_state
    alg = report.algebra()
    flat_ok, flat_detail = flatness_filtration_check(state)
    rows = cone_pair_ext_table().values()
    ext_ff = {p: max(row[p - 1] for row in rows) for p in (1, 2, 3)}
    return {
        "terminated": report.outcome == "terminated",
        "termination_step": report.final_step,
        "dim_R": alg.dim,
        "dim_R_trajectory": report.dim_r_trajectory,
        "radical_square_zero": flat_detail["radical_layers"][1:] == [2],
        "flatness_filtration": flat_ok,
        "flatness_detail": flat_detail,
        "ext_FF_degree0": ext_ff,
        "ext_FF_vanish": all(v == 0 for v in ext_ff.values()),
    }


def odp_audit(fan, wall, D1, D2, curve="C"):
    """Per-condition audit of the double point X obtained by contracting
    the (-1,-1) curve V(wall) of the smooth fan (toric.contract_wall).

    Condition 1: (D1 . curve) = 1 and (D2 . curve) = -1 on the resolution.
    Condition 2: the rank-one modules of the local model form a simple
    collection (_local_cone_conditions).
    Condition 3: H^p(X, O(G)) vanishes for the mixed twists G = -D1+D2 and
    D1-D2, and O_X has (1, 0, 0, 0).  X keeps every ray of `fan`, so a
    divisor carries over by its coefficients.
    Conclusions: the deformation terminates with the four-dimensional
    parameter algebra, flat with vanishing self-extensions.
    """
    i1, i2 = intersect_curve(D1, wall, fan), intersect_curve(D2, wall, fan)
    X = contract_wall(fan, wall)
    rows = {name: list(cohomology(X, TDivisor(X, G.coeffs)))
            for name, G in (("-D1+D2", D2 - D1), ("D1-D2", D1 - D2),
                            ("0", D1 - D1))}
    conditions = {
        "intersection": {f"(D1,{curve})": i1, f"(D2,{curve})": i2,
                         "pass": (i1, i2) == (1, -1)},
        "simple_collection": _local_cone_conditions(),
        "global_vanishing": {
            "rows": rows,
            "pass": (not any(rows["-D1+D2"] + rows["D1-D2"])
                     and rows["0"] == [1, 0, 0, 0])},
    }
    conclusions = copy.deepcopy(_deformation_conclusions())
    return {"conditions": conditions, "conclusions": conclusions,
            "pass": (all(c["pass"] for c in conditions.values())
                     and conclusions["terminated"]
                     and conclusions["dim_R"] == 4
                     and conclusions["flatness_filtration"]
                     and conclusions["ext_FF_vanish"])}


def verify_odp_hypotheses(bundle: str = "quadric_cone"):
    """odp_audit of a geometry named in ODP_BUNDLES."""
    if bundle not in ODP_BUNDLES:
        raise SodError(f"unknown bundle {bundle!r}")
    name, curve, c1, c2 = ODP_BUNDLES[bundle]
    fan, div, walls = fan_library(name)
    return {"bundle": bundle,
            **odp_audit(fan, walls[curve], divisor_from_combo(div, c1),
                        divisor_from_combo(div, c2), curve)}
