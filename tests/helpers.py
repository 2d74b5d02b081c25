"""Helpers shared by the test modules."""


def entries_of(mat) -> dict:
    """The nonzero entries of a ``SparseMat`` as {(row, col): value}, read
    from its columns."""
    return {(i, j): v for j, col in enumerate(mat.columns()) for i, v in col}
