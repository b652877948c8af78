#!/usr/bin/env python3
"""Rearrangement distances between step functions: expand both on a common
uniform refinement, search alignments, and bracket the infimum with a
counting-lemma lower bound for the cut norm.
"""

import numpy as np

from graphonlab import DiscreteSpace, step_function
from graphonlab.distance import common_refinement, delta_bracket

# Two 2-part step functions with different part weights: one splits the
# atoms 1/3 : 2/3, the other in half.
sf1 = step_function(
    DiscreteSpace(np.array([1 / 3, 2 / 3])), [0, 1], [[0.9, 0.2], [0.2, 0.5]]
)
sf2 = step_function(
    DiscreteSpace.uniform(2), [0, 1], [[0.9, 0.2], [0.2, 0.5]]
)

space, k1, k2 = common_refinement(sf1, sf2)
print("common refinement size:", space.n, "(lcm of the weight denominators)")

for norm in ("L1", "L2", "cut"):
    b = delta_bracket(sf1, sf2, norm)
    print(f"delta_{norm}: [{b.lower:.5f}, {b.upper:.5f}]  regime={b.regime}"
          f"  lower via {b.lower_certificate}")

# A relabeled copy is distance zero; the search finds the relabeling.
block = np.array([[0.8, 0.1, 0.3], [0.1, 0.5, 0.2], [0.3, 0.2, 0.9]])
orig = step_function(DiscreteSpace.uniform(3), [0, 1, 2], block)
order = np.array([2, 0, 1])
relabeled = step_function(DiscreteSpace.uniform(3), [0, 1, 2],
                          block[np.ix_(order, order)])
b = delta_bracket(orig, relabeled, "L2")
print(f"\nrelabeled copy: upper = {b.upper:.1e} via alignment {b.alignment}")

# Distinct constants have no alignment freedom: the distance is |p - q| in
# every norm, and the counting-lemma certificate is strictly positive.
cp = step_function(DiscreteSpace.uniform(1), [0], [[0.2]])
cq = step_function(DiscreteSpace.uniform(1), [0], [[0.7]])
for norm in ("L1", "L2", "cut"):
    b = delta_bracket(cp, cq, norm)
    print(f"constant 0.2 vs 0.7, {norm}: [{b.lower:.4f}, {b.upper:.4f}]")

# Bigger refinements leave the exact-enumeration regime: weights 0.3/0.3/0.4
# refine to 10 atoms, so greedy matching plus swap descent takes over.
s1 = step_function(DiscreteSpace(np.array([0.3, 0.3, 0.4])), [0, 1, 2], block)
s2 = step_function(DiscreteSpace(np.array([0.4, 0.3, 0.3])), [0, 1, 2],
                   block[np.ix_(order, order)])
b = delta_bracket(s1, s2, "cut", max_atoms=16, seed=1)
print(f"\nweighted relabeling, cut norm: [{b.lower:.5f}, {b.upper:.5f}]"
      f"  regime={b.regime}, refinement={b.refinement_size}")
