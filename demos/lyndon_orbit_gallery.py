#!/usr/bin/env python3
"""Lyndon words of one content class and the orbits they trace.

Words over {a, b} record step choices on C_9(1,4). The nine Lyndon words
of length 9 with three b's, each started at vertex 0, give nine distinct
primitive orbits; the remaining orbits of the class are reached by other
start vertices and by cubes of the single Lyndon word of length 3.
"""

from itertools import accumulate

from circorbits import (
    CirculantGraph,
    count_lyndon,
    count_orbits_lk,
    enumerate_orbits,
    list_lyndon,
    phi,
    to_step_string,
)

G = CirculantGraph(9, 1, 4)

words = list_lyndon(9, 3)
assert len(words) == count_lyndon(9, 3) == 9

print(f"Lyndon words of length 9 with b-count 3, on C_{G.n}({G.a},{G.b}):")
for w in words:
    orbit = phi(G, w, 0)
    path = accumulate((G.a if c == "a" else G.b for c in w), lambda v, s: (v + s) % G.n,
                      initial=0)
    print(f"  {to_step_string(w, G.a, G.b)}  vertices {'-'.join(map(str, path))}")
    assert orbit.is_primitive()

# a primitive orbit whose step word is not primitive
cube = "aab" * 3
orbit = phi(G, cube, 0)
print(f"\ncube word {to_step_string(cube, G.a, G.b)} still gives a primitive orbit "
      f"(repetition {orbit.repetition}): word repetition 3 is coprime to winding 2")

formula = count_orbits_lk(G, 9, 3).count
oracle = sum(o.is_primitive() for o in enumerate_orbits(G, 9, 3))
print(f"\nclass total: formula {formula}, brute force {oracle}")
assert formula == oracle == 84
