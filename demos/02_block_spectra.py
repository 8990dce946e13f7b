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
"""

import numpy as np

from ruminlab.model import lens_space, su2_model
from ruminlab.operators import hermitize
from ruminlab.spectral import Assembly, q_decomposition

model = su2_model()
asm = Assembly(model, 4)
print(f"model: 3-sphere, weights <= {asm.max_weight}; spectra exact below {asm.spectral_cutoff():g}")

print()
print("degree 0, with half-Laplacian tags")
print(f"{'block':>6} {'lam10':>8} {'lam01':>8} {'(sum)^2':>9} {'eigenvalue':>11} {'mult':>5}")
for ctx in asm.contexts:
    lap = ctx.laplacian_rn(0).matrix
    for cpt in q_decomposition(asm, ctx.block.weight, 0):
        ray = float(np.real(np.mean(np.diag(cpt.basis.conj().T @ lap @ cpt.basis))))
        print(
            f"{ctx.block.label:>6} {cpt.lambda10:8.3f} {cpt.lambda01:8.3f}"
            f" {(cpt.lambda10 + cpt.lambda01) ** 2:9.3f} {ray:11.6f} {ctx.block.multiplicity * cpt.dim:5d}"
        )

print()
print("degree 1 (middle degree), with Reeb eigenvalues")
print(f"{'block':>6} {'eigenvalue':>11} {'nu':>7} {'mult':>5}")
joint = asm.rumin_rows(1)
for w, delta, tau, count in zip(*(column.tolist() for column in (joint.owner, joint.delta, joint.tau, joint.count))):
    ctx = asm.contexts[w]
    nu = 0.0 - tau  # never -0.0
    print(f"{ctx.block.label:>6} {max(delta, 0.0):11.6f} {nu:7.2f} {ctx.block.multiplicity * count:5d}")

print()
print("mirror symmetry: the star operator pairs degrees k and 3-k")
ctx = asm.contexts[2]
for k in (0, 1):
    a = np.sort(np.linalg.eigvalsh(hermitize(ctx.laplacian_rn(k).matrix, 1e-9)))
    b = np.sort(np.linalg.eigvalsh(hermitize(ctx.laplacian_rn(3 - k).matrix, 1e-9)))
    print(f"  block m2, degrees {k} vs {3 - k}: max eigenvalue gap {np.max(np.abs(a - b)):.2e}")

print()
print("twisting by a nontrivial flat character removes the zero modes:")
for character in (0, 1):
    tasm = Assembly(lens_space(2, character=character), 4)
    zero_modes = 0
    for ctx in tasm.contexts:
        w = np.linalg.eigvalsh(hermitize(ctx.laplacian_rn(0).matrix, 1e-9))
        zero_modes += ctx.block.multiplicity * int(np.sum(np.abs(w) < 1e-9))
    print(f"  order-2 quotient, character {character}: {zero_modes} zero mode(s) in degree 0")
