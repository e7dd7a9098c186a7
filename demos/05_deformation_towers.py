"""Deformation towers: one that stops and one that does not.

A simple collection deforms by universal extensions: each step glues on a
copy of L_j for every independent first extension class of the current
object.  The parameter algebra is the endomorphism algebra of the result.
At the non-factorial cone point the tower stops after one step with a
four-dimensional algebra; at the factorial node point it climbs through
the monomial truncations of the node forever.
"""

from singcat import models
from singcat.ncdef import SimpleCollection, flatness_filtration_check, run

print("== the cone point: two rank-one modules ==")
P = models.projective_cone_ring("Q")
coll = SimpleCollection([models.cone_L1(P), models.cone_L2(P)])
rep = run(coll, max_iter=8)
print(f"outcome: {rep.outcome} at step {rep.final_step}")
print(f"dim R trajectory: {rep.dim_r_trajectory}")
alg = rep.algebra()
print(f"parameter algebra on basis {alg.labels}")
layers = alg.radical_layers()
print(f"radical dimension {sum(layers[1:])}, radical squared {sum(layers[2:])}: two arrows, "
      f"square zero")
ok, detail = flatness_filtration_check(rep.final_state)
print(f"flatness filtration check: {ok}; factor multiplicities "
      f"{detail['multiplicities']}")

print()
print("== the node point: a single simple module ==")
B = models.node_surface("Q")
coll = SimpleCollection([models.node_point_module(B)])
rep = run(coll, max_iter=5)
print(f"outcome: {rep.outcome} after the bound of {rep.final_step} states")
print(f"dim R trajectory: {rep.dim_r_trajectory}")
print("each algebra in the tower is the corresponding monomial truncation")
for n in (1, 2):
    state = rep.states[n]
    oracle = models.truncated_node_algebra(B, n)
    print(f"  step {n}: dim {state.algebra().dim} "
          f"(truncation basis {', '.join(oracle.labels)})")
print("the limit would be the complete local ring of the node itself,")
print("which is not a finitely presented object: the tower never stops")
