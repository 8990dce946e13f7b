"""The dense (Laplacian, i L_T) pairs of the `spectrum` operators, from `BlockContext`.

`rumin spectrum` builds its operators on the Reeb sectors of every weight at
once (`ruminlab.sectors`); the tests compare those sector blocks with the
sectors of these dense block matrices.
"""

from ruminlab.operators import hermitize

SPECTRUM_OPS = ("delta-rn", "delta-dr", "delta-t", "delta-b")


def spectrum_degrees(op: str) -> range:
    """The degrees of the `spectrum` operator `op` on a 3-manifold."""
    return range(3) if op == "delta-b" else range(4)


def operator_pair(ctx, op: str, degree: int, t: float):
    """Hermitized (Laplacian, i L_T) of the `spectrum` operator `op` in one degree."""
    if op == "delta-rn":
        lap = ctx.laplacian_rn(degree).matrix
        ilt = 1j * ctx.lie_reeb_rumin(degree).matrix
    elif op == "delta-dr":
        lap = ctx.laplacian_de_rham(degree).matrix
        ilt = 1j * ctx.lie_reeb_full(degree)
    elif op == "delta-t":
        lap = ctx.laplacian_t(degree, t).matrix
        ilt = 1j * ctx.lie_reeb_full(degree)
    elif op == "delta-b":
        lap = ctx.laplacian_b(degree).matrix
        sp = ctx.horizontal_space(degree)
        ilt = 1j * ctx.compress(ctx.lie_reeb_full(degree), sp, sp).matrix
    else:
        raise KeyError(op)
    return hermitize(lap, 1e-9), hermitize(ilt, 1e-9)

