"""Exact sheaf cohomology on complete toric threefolds.

Divisor classes are ray-coefficient vectors; cohomology is assembled
character by character, grouped into sign chambers, from the complex of
the rays on which the character is negative.  Weil divisors that are not Cartier (the rank-one
classes on the quadric cone) are handled by exactly the same formula.
"""

from singcat.toric import (TDivisor, canonical_divisor, class_group,
                           cohomology, divisor_from_combo, fan_library,
                           intersect_curve, weil_is_cartier)

print("== projective space and its blow-up ==")
fan, div, _ = fan_library("P3")
H = div["H"]
print(f"h(O)     on P3: {cohomology(fan, H.scale(0))}")
print(f"h(O(-4)) on P3: {cohomology(fan, H.scale(-4))}  (top-degree dual of O)")

fan, div, walls = fan_library("blowupP3_2pts")
print(f"blow-up at two points: {len(fan.rays)} rays, class group {class_group(fan)}")
D1 = divisor_from_combo(div, {"H": -1, "E1": 1, "E2": 1})
D2 = div["E1"].scale(-1)
print(f"degrees against the connecting line: "
      f"(D1,l) = {intersect_curve(D1, walls['l'], fan)}, "
      f"(D2,l) = {intersect_curve(D2, walls['l'], fan)}")
print(f"the mixed twist has a single obstruction class: "
      f"h(-D1+D2) = {cohomology(fan, D2 - D1)}")

print()
print("== Serre duality, checked not assumed ==")
K = canonical_divisor(fan)
D = divisor_from_combo(div, {"H": 1, "E1": -1, "E2": 0})
print(f"h(D)      = {cohomology(fan, D)}")
print(f"h(K - D)  = {cohomology(fan, K - D)}  (reversed)")

print()
print("== the quadric cone: Weil but not Cartier ==")
fan, div, _ = fan_library("coneP1xP1_projective")
combo = lambda a, b: div["O(1,0)"].scale(a) + div["O(0,1)"].scale(b)
print("invertibility of the rank-one classes O(a,b):")
for a in range(-2, 3):
    row = "".join(" C " if weil_is_cartier(fan, combo(a, b)) else " . "
                  for b in range(-2, 3))
    print(f"  a={a:+d}: {row}")
print("only the diagonal classes are Cartier")
print(f"h(O(-1,0)) = {cohomology(fan, combo(-1, 0))}  (vanishes in every degree)")
print(f"h(O(1,1))  = {cohomology(fan, combo(1, 1))}  (the five hyperplane sections)")
rfan, rdiv, rwalls = fan_library("coneP1xP1_smallres")
print(f"on the small resolution the flopped curve meets the rulings with "
      f"degrees {intersect_curve(rdiv['O(0,1)'], rwalls['C'], rfan)} and "
      f"{intersect_curve(rdiv['O(1,0)'], rwalls['C'], rfan)}")
