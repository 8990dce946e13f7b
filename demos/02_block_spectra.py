"""Exact spectra of the Rumin Laplacian, block by block.

Functions on the model 3-sphere split into invariant weight blocks: the
weight-m block is the (m+1)-dimensional irreducible slot repeated
`ctx.block.multiplicity` times (m+1 times on the sphere), and every
differential operator is a finite matrix on the slot, so each truncated
spectrum below the cutoff is exact, not approximate.  Multiplicities printed
below count all copies.  The
tables show the simultaneous eigenvalues (lambda10, lambda01) of the two half
Laplacians in degree 0 and the Reeb eigenvalue nu everywhere; in degree 0 the
eigenvalue always equals (lambda10 + lambda01)^2.

Both tables read one route, `asm.rumin_rows(k)`: i L_T is diagonal in the
block basis, so the Rumin Laplacian of every weight is cut into its Reeb
sectors (basis vectors sharing one Reeb eigenvalue tau = -nu) and each degree
is diagonalized once over all weights, with one stacked eigensolve per sector
size, and nu is an exact integer.  `q_decomposition(asm, m, 0)` adds the
half-Laplacian pair and a dense basis of each component of block m; the
degree-1 rows need only the eigenvalue, the Reeb value and the dimension of
each joint eigenspace, which the solved rows hold as columns over every block
(`owner`, `delta`, `tau`, `count`), so no eigenvector basis is built for them.
The mirror and zero-mode lines read the solved rows of every degree too,
which keep the eigenvalues of every Reeb sector (`values`, in the columns
`used`): a block's spectrum is the union of its sectors'.
No dense block matrix is built.
"""

import numpy as np

from ruminlab.model import block_label, lens_space, su2_model
from ruminlab.spectral import Assembly, q_decomposition

model = su2_model()
asm = Assembly(model, 4)
print(f"model: 3-sphere, weights <= {asm.max_weight}; spectra exact below {asm.spectral_cutoff():g}")

print()
print("degree 0, with half-Laplacian tags")
print(f"{'block':>6} {'lam10':>8} {'lam01':>8} {'(sum)^2':>9} {'eigenvalue':>11} {'mult':>5}")
joint = asm.rumin_rows(0)
for w, (m, r) in enumerate(zip(asm.weights, asm.multiplicity)):
    lo, hi = joint.row_components(w)
    for cpt, delta in zip(q_decomposition(asm, m, 0), joint.delta[lo:hi].tolist()):
        print(
            f"{block_label(m):>6} {cpt.lambda10:8.3f} {cpt.lambda01:8.3f}"
            f" {(cpt.lambda10 + cpt.lambda01) ** 2:9.3f} {delta:11.6f} {r * cpt.dim:5d}"
        )

print()
print("degree 1 (middle degree), with Reeb eigenvalues")
print(f"{'block':>6} {'eigenvalue':>11} {'nu':>7} {'mult':>5}")
joint = asm.rumin_rows(1)
for w, delta, tau, count in zip(*(column.tolist() for column in (joint.owner, joint.delta, joint.tau, joint.count))):
    nu = 0.0 - tau  # never -0.0
    print(f"{block_label(asm.weights[w]):>6} {max(delta, 0.0):11.6f} {nu:7.2f} {asm.multiplicity[w] * count:5d}")

print()
print("mirror symmetry: the star operator pairs degrees k and 3-k")


def spectrum_m2(k: int) -> np.ndarray:
    """The degree-k Rumin eigenvalues of block m2, from those of its Reeb sectors."""
    joint = asm.rumin_rows(k)
    m2 = slice(*joint.rows.starts[2:4])  # the sectors of block m2
    return np.sort(joint.values[:, m2][joint.used[:, m2]])


for k in (0, 1):
    gap = np.max(np.abs(spectrum_m2(k) - spectrum_m2(3 - k)))
    print(f"  block m2, degrees {k} vs {3 - k}: max eigenvalue gap {gap:.2e}")

print()
print("twisting by a nontrivial flat character removes the zero modes:")
for character in (0, 1):
    tasm = Assembly(lens_space(2, character=character), 4)
    joint = tasm.rumin_rows(0)
    zero = joint.used & (np.abs(joint.values) < 1e-9)
    zero_modes = int(np.dot(tasm.multiplicity, tasm.sector_stacks.per_weight(zero)))
    print(f"  order-2 quotient, character {character}: {zero_modes} zero mode(s) in degree 0")
