"""Run the full verification suite and summarize every identity it checks.

Each suite turns one structural statement about the Rumin complex on a
Sasakian 3-manifold into matrix residuals: the complex property of the
rescaled differential, the commutator framework of the split halves, the
equality of the two harmonic spaces as subspaces, primitivity of harmonic
forms, and the kernels of the deformed family.
"""

from ruminlab.model import lens_space, su2_model
from ruminlab.spectral import (
    Assembly,
    verify_complex_property,
    verify_eigenvalue_identity,
    verify_deformation_family,
    verify_hodge_block_matrix,
    verify_kernel_coincidence,
    verify_middle_degree,
    verify_primitivity,
    verify_sasakian_identities,
    verify_star_symmetry,
)

SUITES = (
    verify_complex_property,
    verify_sasakian_identities,
    verify_hodge_block_matrix,
    verify_kernel_coincidence,
    verify_primitivity,
    verify_deformation_family,
    verify_eigenvalue_identity,
    verify_middle_degree,
    verify_star_symmetry,
)

for model, mw in ((su2_model(), 4), (lens_space(3, character=1), 5)):
    label = f"{model.name} (p={model.p}, character={model.character}), weights <= {mw}"
    print("=" * 72)
    print(label)
    print("=" * 72)
    asm = Assembly(model, mw)
    for suite in SUITES:
        rep = suite(asm)
        worst = max((r for r, t in zip(rep.residuals, rep.tolerances) if t < 0.4), default=0.0)
        status = "ok " if rep.passed else "FAIL"
        print(f"  {status} {rep.name:24s} {len(rep.names):4d} checks, worst residual {worst:.2e}")
        for i in rep.failed()[:3]:
            print(f"       -> {rep.names[i]}: {rep.residuals[i]:.3e} > {rep.tolerances[i]:.1e}")
    dims = verify_kernel_coincidence(asm).parameters["kernel_dims"]
    print(f"  harmonic dimensions by degree: {dims}")
    print()
