"""The irreducible-slot blocks against the full W (x) C^r representation.

A weight block is W (x) C^r with the frame fields acting on W alone, so every
operator is A (x) I_r: its spectrum is the slot spectrum repeated r times.
These tests rebuild the full block with kron(action, I_r) and compare.
"""

import numpy as np
import pytest

from ruminlab.model import FunctionBlock, deck_generator_matrix, lens_space, su2_model, su2_weight_actions
from ruminlab.operators import BlockContext

CASES = [(1, 0, 2), (1, 0, 5), (3, 1, 5), (4, 2, 6)]  # (p, character, m); p = 1 is the sphere


def _model(p, l):
    return su2_model() if p == 1 else lens_space(p, character=l)


def _block(p, l, m):
    (blk,) = [b for b in _model(p, l).blocks(m) if b.weight == m]
    return blk


@pytest.mark.parametrize("p,l,m", CASES)
def test_multiplicity_is_deck_eigenvalue_multiplicity(p, l, m):
    w = np.linalg.eigvals(deck_generator_matrix(m, p))
    mult = int(np.sum(np.abs(w - np.exp(2j * np.pi * l / p)) < 1e-9))
    assert mult % (m + 1) == 0
    assert _block(p, l, m).multiplicity == mult // (m + 1)


@pytest.mark.parametrize("p,l,m", CASES)
def test_spectra_repeat_the_slot_spectrum(p, l, m):
    model = _model(p, l)
    blk = _block(p, l, m)
    r = blk.multiplicity
    assert r > 0
    full_block = FunctionBlock(
        label=blk.label,
        weight=m,
        actions={nm: np.kron(a, np.eye(r)) for nm, a in su2_weight_actions(m).items()},
    )
    reduced, full = BlockContext(model.frame, blk), BlockContext(model.frame, full_block)
    for k in range(model.frame.dim + 1):
        for lap in ("laplacian_rn", "laplacian_de_rham"):
            want = np.sort(np.repeat(np.linalg.eigvalsh(getattr(reduced, lap)(k).matrix), r))
            got = np.linalg.eigvalsh(getattr(full, lap)(k).matrix)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), (lap, k)
