"""Collection verification, LES propagation, and the hypothesis audits."""

import pytest

from singcat import sodcheck
from singcat.findim import FiniteDimAlgebra
from singcat.toric import (Fan, TDivisor, contract_wall, divisor_from_combo,
                           fan_library)
from singcat.sodcheck import (check_exceptional, check_orthogonal_to_deformation,
                              les_propagate, LESError,
                              blowup_collections, run_blowup_vanishing_manifest,
                              verify_odp_hypotheses)


def test_eight_object_collection_is_exceptional():
    fan, _walls, eight, _five, _D = blowup_collections()
    names = [n for n, _d in eight]
    report = check_exceptional(fan, [d for _n, d in eight], names)
    assert report["exceptional"], report["witnesses"]


def test_five_object_collection_is_strong():
    fan, _walls, _eight, five, _D = blowup_collections()
    names = [n for n, _d in five]
    report = check_exceptional(fan, [d for _n, d in five], names)
    assert report["exceptional"], report["witnesses"]
    assert report["strong"], report["strong_witnesses"]


def test_backwards_pair_fails_with_witness():
    fan, div, _ = fan_library("P3")
    H = div["H"]
    O = H.scale(0)
    report = check_exceptional(fan, [H, O], ["O(H)", "O"])
    assert not report["exceptional"]
    w = report["witnesses"][0]
    assert w["pair"] == ("O", "O(H)")
    assert w["degree"] == 0 and w["dim"] == 4  # the four linear forms


def test_orthogonality_to_deformation_objects():
    fan, _walls, _eight, five, (D1, D2) = blowup_collections()
    report = check_orthogonal_to_deformation(fan, [d for _n, d in five],
                                             [D1, D2], [n for n, _d in five])
    assert report["pass"], report["witnesses"]
    assert len(report["rows"]) == 10


def test_vanishing_manifest_has_twenty_plus_entries_and_passes():
    results = run_blowup_vanishing_manifest()
    assert len(results) >= 20
    bad = [r for r in results if not r["pass"]]
    assert not bad, bad
    ids = [r["id"] for r in results]
    assert len(set(ids)) == len(ids)


def test_les_forced_propagation():
    # Hom(-, L1) applied to 0 -> L2 -> F1 -> L1 -> 0 with the alternating
    # tables: first = dims for L1 (quotient), second = dims for L2 (sub)
    first = [1, 0, 1, 0, 1]   # Hom/Ext^p(L1, L1)
    second = [0, 1, 0, 1, 0]  # Hom/Ext^p(L2, L1)
    dims, _notes = les_propagate(first, second, 3)
    # Hom is forced because Hom(L2, L1) = 0
    assert dims[0] == 1


def test_les_annotation_and_intervals():
    first = [1, 0, 1, 0, 1]
    second = [0, 1, 0, 1, 0]
    dims, notes = les_propagate(first, second, 3)
    # odd degrees have source 1 and target 1: unforced intervals
    assert dims[1] == (0, 1) and dims[3] == (0, 1)
    ann = {1: (1, "the connecting map hits the extension class"),
           3: (1, "two-periodicity repeats the degree-one argument")}
    dims2, notes2 = les_propagate(first, second, 3, ann)
    assert dims2 == [1, 0, 0, 0]
    assert 1 in notes2 and 3 in notes2
    with pytest.raises(LESError):
        les_propagate(first, second, 3, {1: (2, "impossible rank")})


def test_les_zero_padding_invariance():
    first = [1, 0, 1, 0]
    second = [0, 1, 0, 1]
    a, _ = les_propagate(first, second, 2)
    b, _ = les_propagate(first + [0, 0, 0], second + [0, 0, 0], 2)
    assert a == b


def test_split_ses_adds():
    # a split sequence has zero connecting maps; annotate the unforced ones
    ann = {0: (0, "split sequence"), 1: (0, "split sequence")}
    dims, _ = les_propagate([2, 1, 0, 0], [3, 0, 4, 0], 2, ann)
    assert dims == [5, 1, 4]


def test_odp_audit_quadric_cone():
    report = verify_odp_hypotheses("quadric_cone")
    assert report["conditions"]["intersection"]["pass"]
    assert report["conditions"]["simple_collection"]["pass"]
    assert report["conditions"]["global_vanishing"]["pass"]
    assert report["conclusions"]["dim_R"] == 4
    assert report["conclusions"]["dim_R_trajectory"] == [2, 4]
    assert report["pass"]


def test_odp_audit_blowup():
    report = verify_odp_hypotheses("blowup")
    assert report["conditions"]["intersection"]["pass"]
    assert report["conditions"]["simple_collection"]["pass"]
    assert report["conditions"]["global_vanishing"]["pass"]
    assert report["pass"]


_LOCAL_MODEL = {"ext1_matrix": [[0, 1], [1, 0]], "hom_matrix": [[1, 0], [0, 1]],
                "pass": True, "simple_collection": True}
_CONCLUSIONS = {
    "dim_R": 4, "dim_R_trajectory": [2, 4], "ext_FF_degree0": {1: 0, 2: 0, 3: 0},
    "ext_FF_vanish": True,
    "flatness_detail": {"filtration_counts": [2, 2], "multiplicities": [2, 2],
                        "radical_layers": [2, 2], "step_factor_counts": [2, 2]},
    "flatness_filtration": True, "radical_square_zero": True,
    "terminated": True, "termination_step": 1,
}
_ROWS = {"-D1+D2": [0, 0, 0, 0], "D1-D2": [0, 0, 0, 0], "0": [1, 0, 0, 0]}
_QUADRIC_REPORT = {
    "bundle": "quadric_cone", "conclusions": _CONCLUSIONS, "pass": True,
    "conditions": {
        "global_vanishing": {"pass": True, "rows": _ROWS},
        "intersection": {"(D1,C)": 1, "(D2,C)": -1, "pass": True},
        "simple_collection": _LOCAL_MODEL,
    },
}
_BLOWUP_REPORT = {
    "bundle": "blowup", "conclusions": _CONCLUSIONS, "pass": True,
    "conditions": {
        "global_vanishing": {"pass": True, "rows": _ROWS},
        "intersection": {"(D1,l)": 1, "(D2,l)": -1, "pass": True},
        "simple_collection": _LOCAL_MODEL,
    },
}


def _clear_cone_pair_caches():
    from singcat import sodcheck
    for cached in (sodcheck.cone_pair, sodcheck.cone_pair_ext_table,
                   sodcheck._deformation_conclusions):
        cached.cache_clear()


def test_deformation_conclusions_run_once_per_process(monkeypatch):
    from singcat import sodcheck
    from singcat.manifest import run_claims
    runs, collections = [], []
    real_run, real_collection = sodcheck.run, sodcheck.SimpleCollection

    def counting_run(*args, **kw):
        runs.append(args)
        return real_run(*args, **kw)

    def counting_collection(*args, **kw):
        collections.append(args)
        return real_collection(*args, **kw)

    monkeypatch.setattr(sodcheck, "run", counting_run)
    monkeypatch.setattr(sodcheck, "SimpleCollection", counting_collection)
    _clear_cone_pair_caches()
    quadric = verify_odp_hypotheses("quadric_cone")
    blowup = verify_odp_hypotheses("blowup")
    assert len(runs) == 1
    assert quadric == _QUADRIC_REPORT
    assert blowup == _BLOWUP_REPORT
    # each report owns its conclusions: editing one leaves the others alone
    quadric["conclusions"]["ext_FF_degree0"][1] = 7
    quadric["conclusions"]["dim_R_trajectory"].append(6)
    quadric["conditions"]["simple_collection"]["hom_matrix"][0][0] = 7
    assert blowup["conclusions"] == _CONCLUSIONS
    assert blowup["conditions"]["simple_collection"] == _LOCAL_MODEL
    assert verify_odp_hypotheses("quadric_cone")["conclusions"] == _CONCLUSIONS
    # the section 6 claims on the extensions read the same run
    for cid in ("odp-extension-objects", "odp-ff-vanishing"):
        assert run_claims(cid=cid)["pass"]
    assert len(runs) == 1 and len(collections) == 1


@pytest.mark.parametrize("bundle", ["quadric_cone", "blowup"])
def test_a_failing_local_model_fails_both_audits(monkeypatch, bundle):
    monkeypatch.setattr(sodcheck, "_local_cone_conditions",
                        lambda: {**_LOCAL_MODEL, "pass": False})
    report = verify_odp_hypotheses(bundle)
    assert not report["conditions"]["simple_collection"]["pass"]
    assert not report["pass"]


def test_the_other_small_resolution_passes_with_the_divisors_swapped():
    # the flop of C: the square cone cut along its other diagonal (1,3); it
    # contracts to the same projective cone, and O(1,0) now has degree 1
    # on the flopped curve and O(0,1) degree -1
    fan, div, walls = fan_library("coneP1xP1_smallres")
    flop = Fan(3, fan.rays, [(0, 1, 3), (1, 2, 3), (0, 1, 4), (1, 2, 4),
                             (2, 3, 4), (0, 3, 4)], "coneP1xP1_flop")
    assert flop.is_complete()
    O10, O01 = (TDivisor(flop, div[k].coeffs) for k in ("O(1,0)", "O(0,1)"))
    assert sodcheck.odp_audit(flop, (1, 3), O10, O01)["pass"]
    assert (set(contract_wall(flop, (1, 3)).max_cones)
            == set(contract_wall(fan, walls["C"]).max_cones))
    unswapped = sodcheck.odp_audit(flop, (1, 3), O01, O10)
    assert unswapped["conditions"]["intersection"] == {
        "(D1,C)": -1, "(D2,C)": 1, "pass": False}
    assert not unswapped["pass"]


def _make_extensions():
    """The rank-two extensions laid out by hand: one Yoneda extension along
    the degree-zero class of each Ext^1(L_i, L_j), i != j."""
    from singcat import models
    from singcat.homs import ext_space, yoneda_extension
    P = models.projective_cone_ring("Q")
    L1, L2 = models.cone_L1(P), models.cone_L2(P)
    out = []
    for quot, sub in ((L1, L2), (L2, L1)):
        space = ext_space(quot, sub, 1)
        item = space.basis_items(graded_degree=0)[0]
        out.append(yoneda_extension(space.item_matrix(item), sub, quot,
                                    require_nontrivial=True).E)
    return out


def test_cone_pair_state_one_is_the_hand_laid_extensions():
    from singcat.sodcheck import cone_pair
    _coll, report = cone_pair()
    for got, want in zip(report.states[1].components, _make_extensions(),
                         strict=True):
        assert got.ngens == want.ngens
        assert got.relations == want.relations
        assert got.gen_degrees == want.gen_degrees


def test_zero_extension_class_is_refused(monkeypatch):
    from singcat.homs import HomError, MatrixSubquotient
    monkeypatch.setattr(MatrixSubquotient, "element_class_is_zero",
                        lambda self, vec: True)
    _clear_cone_pair_caches()
    try:
        with pytest.raises(HomError, match="zero class"):
            verify_odp_hypotheses("quadric_cone")
    finally:
        _clear_cone_pair_caches()


def test_broken_bundle_fails_condition_one():
    fan, walls, _eight, _five, (D1, D2) = blowup_collections()
    from singcat.toric import intersect_curve
    bad_D2 = D2.scale(2)  # -2E1
    val = intersect_curve(bad_D2, walls["l"], fan)
    assert val == -2  # the audit's condition (1) would report this witness


def test_deformation_conclusions_compute_one_radical(monkeypatch):
    calls = {"radical": 0, "mul_in_radical": 0}
    inside = []
    radical, mul = FiniteDimAlgebra.radical, FiniteDimAlgebra.mul

    def counting_radical(self):
        calls["radical"] += 1
        inside.append(True)
        try:
            return radical(self)
        finally:
            inside.pop()

    def counting_mul(self, a, b):
        if inside:
            calls["mul_in_radical"] += 1
        return mul(self, a, b)

    monkeypatch.setattr(FiniteDimAlgebra, "radical", counting_radical)
    monkeypatch.setattr(FiniteDimAlgebra, "mul", counting_mul)
    sodcheck._deformation_conclusions.cache_clear()
    conclusions = sodcheck._deformation_conclusions()
    assert conclusions["radical_square_zero"] and conclusions["flatness_filtration"]
    assert calls == {"radical": 1, "mul_in_radical": 0}
