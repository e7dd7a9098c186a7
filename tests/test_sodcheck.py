"""Collection verification, LES propagation, and the hypothesis audits."""

import pytest

from singcat.toric import fan_library, divisor_from_combo
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
_QUADRIC_REPORT = {
    "bundle": "quadric_cone", "conclusions": _CONCLUSIONS, "pass": True,
    "conditions": {
        "global_vanishing": {"pass": True,
                             "rows": {"O": [1, 0, 0, 0], "O(-1,1)": [0, 0, 0, 0],
                                      "O(1,-1)": [0, 0, 0, 0]}},
        "intersection": {"(D'1,C)": 1, "(D'2,C)": -1, "pass": True},
        "simple_collection": _LOCAL_MODEL,
    },
}
_BLOWUP_REPORT = {
    "bundle": "blowup", "conclusions": _CONCLUSIONS, "pass": True,
    "conditions": {
        "global_vanishing": {
            "annotations": [{"rank": 1, "twist": "-D1+D2",
                             "statement": "restriction to the contracted curve "
                                          "is surjective on first cohomology"}],
            "pass": True,
            "rows": {"-D1+D2": {"curve_degree": -2, "downstairs": [0, 0, 0, 0],
                                "upstairs": [0, 1, 0, 0]},
                     "0": {"curve_degree": 0, "downstairs": [1, 0, 0, 0],
                           "upstairs": [1, 0, 0, 0]},
                     "D1-D2": {"curve_degree": 2, "downstairs": [0, 0, 0, 0],
                               "upstairs": [0, 0, 0, 0]}}},
        "intersection": {"(D1,l)": 1, "(D2,l)": -1, "pass": True},
        "simple_collection": {"hom(L1,L2)_sections": 0, "hom(L2,L1)_sections": 0,
                              "local_model": _LOCAL_MODEL, "pass": True},
    },
}


def test_deformation_conclusions_run_once_per_process(monkeypatch):
    from singcat import sodcheck
    runs = []
    real_run = sodcheck.run

    def counting_run(*args, **kw):
        runs.append(args)
        return real_run(*args, **kw)

    monkeypatch.setattr(sodcheck, "run", counting_run)
    sodcheck._deformation_conclusions.cache_clear()
    quadric = verify_odp_hypotheses("quadric_cone")
    blowup = verify_odp_hypotheses("blowup")
    assert len(runs) == 1
    assert quadric == _QUADRIC_REPORT
    assert blowup == _BLOWUP_REPORT
    # each report owns its conclusions: editing one leaves the others alone
    quadric["conclusions"]["ext_FF_degree0"][1] = 7
    quadric["conclusions"]["dim_R_trajectory"].append(6)
    assert blowup["conclusions"] == _CONCLUSIONS
    assert verify_odp_hypotheses("quadric_cone")["conclusions"] == _CONCLUSIONS
    assert len(runs) == 1


def test_broken_bundle_fails_condition_one():
    fan, walls, _eight, _five, (D1, D2) = blowup_collections()
    from singcat.toric import intersect_curve
    bad_D2 = D2.scale(2)  # -2E1
    val = intersect_curve(bad_D2, walls["l"], fan)
    assert val == -2  # the audit's condition (1) would report this witness
