"""The Reeb-vector decomposition of the contact torsion function.

In low degrees the positive spectrum splits along the signs of the pair
(box, boxbar) = (sqrt(Delta) +- i L_T)/2.  On the two one-sided pieces the
Laplacian is exactly the square of the Reeb derivative, so their zeta sums
are zeta functions of -L_T^2.  The bi-positive piece is invisible to either
side but appears q times below the middle degree and 2q times in it, so under
the degree weights (-2, +1) it cancels from the torsion function: the
weighted sum of the one-sided zeta functions reproduces kappa exactly.
"""

from ruminlab.model import lens_space, su2_model
from ruminlab.spectral import Assembly
from ruminlab.torsion import PIECES, reeb_decomposition

asm = Assembly(su2_model(), 4)
rep = reeb_decomposition(asm, s_grid=(2.0, 3.0, 4.0))

print(f"3-sphere, weights <= {asm.max_weight}; multisets exact below {rep.cutoff:g}")
print()
print("classified joint (Delta, i L_T) eigenspaces:")
print(f"{'block':>6} {'deg':>4} {'eigenvalue':>11} {'nu':>6} {'mult':>5}  piece")
c = rep.columns  # one entry per joint eigenspace of a block in one degree
block, degree, delta, nu, mult = (c[name].tolist() for name in ("block", "degree", "delta", "nu", "mult"))
for i in sorted(range(len(block)), key=lambda i: (block[i], degree[i], delta[i], nu[i])):
    print(f"{block[i]:>6} {degree[i]:>4} {delta[i]:11.4f} {nu[i]:6.1f} {mult[i]:5d}  {PIECES[c['piece'][i]]}")

print()
print("telescoping of the bi-positive piece (weight-2 block):")
for degree in (0, 1):
    at = (c["block"] == "m2") & (c["degree"] == degree) & (c["piece"] == PIECES.index("bi_positive"))
    print(f"  degree {degree}: {c['mult'][at].sum()} bi-positive eigenvalues 16  (weights -2 and +1 cancel: -2*3 + 6 = 0)")

print()
print("per-degree comparison (diagnostic) vs the weighted identity (theorem):")
bad = sorted(k for k, ok in rep.per_degree_outcomes.items() if not ok)
print(f"  per-degree match fails on {bad} -- exactly the blocks with a bi-positive part")
print(f"  weighted multiset identity: {'holds' if rep.weighted_match else 'fails'}")

print()
print("torsion-function partial sums from both routes:")
print(f"{'s':>4} {'from the spectrum':>20} {'from the Reeb pieces':>22}")
for s in (2.0, 3.0, 4.0):
    print(f"{s:4.1f} {rep.kappa_from_spectrum[s]:20.12f} {rep.kappa_from_reeb[s]:22.12f}")

print()
print("kernel dimensions against the rank oracle:", rep.kernel_dims, "=", rep.cohomology_dims)
print()
print("twisted quotients lose the constants:")
trep = reeb_decomposition(Assembly(lens_space(3, character=1), 4))
print(f"  order-3 quotient, character 1: kernel dims {trep.kernel_dims}, "
      f"weighted identity {'holds' if trep.weighted_match else 'fails'}")
print()
print(f"caveat: {rep.s_grid} are partial sums at safe exponents;",
      "no analytic continuation, no torsion value is claimed.")
