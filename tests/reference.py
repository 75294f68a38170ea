"""A Fraction reference for the library's products and maps.

It shares no code with the library: a product family is read only
through `basis_product`, and a matrix only through `get`, and every sum
is written here in Fractions.  So the int kernels behind `apply`
(`block_times`, `rows_times`) are checked against something they do not
run."""

from fractions import Fraction
from itertools import product


def mat_vec(m, x):
    """The matrix m times the vector x."""
    return tuple(sum((m.get(i, j) * x[j] for j in range(m.cols)), Fraction(0))
                 for i in range(m.rows))


def map_at(fam, a, x):
    """The map family fam at index a, applied to x."""
    return mat_vec(fam.maps[a], x)


def bilinear(fam, a, b, x, y):
    """x *_{a,b} y, summed over e_i *_{a,b} e_j."""
    out = [Fraction(0)] * fam.dim
    for i, j in product(range(fam.dim), repeat=2):
        xy = x[i] * y[j]
        if xy:
            for k, c in enumerate(fam.basis_product(a, b, i, j)):
                if c:
                    out[k] += xy * c
    return tuple(out)


def nonzero_cells(fam):
    """{(a, b, i, j): e_i *_{a,b} e_j} over every product that is not zero."""
    n, d = range(fam.omega.order), range(fam.dim)
    cells = {key: fam.basis_product(*key) for key in product(n, n, d, d)}
    return {key: cell for key, cell in cells.items() if any(cell)}
