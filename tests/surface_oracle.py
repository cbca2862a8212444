"""Reference entry surfaces of a lift, for tests only.

The package never stores a surface: its norms stream entries X^w_{s,t} from
the basepoint tensors column by column.  Tests check that route against
surfaces built here on their own, from the whole-tensor Chen relation

    X^2_{s,t} = X^2_{0,t} - X^2_{0,s} - x_{0,s} (x) x_{s,t},
    X^3_{s,t} = X^3_{0,t} - X^3_{0,s} - x_{0,s} (x) X^2_{s,t} - X^2_{0,s} (x) x_{s,t},

evaluated at every grid pair (s, t) at once.
"""

import numpy as np


def chen_surfaces(values, base2, base3=None):
    """(X^2, X^3) over all grid pairs, indexed [..., s, t, i, j(, k)]; X^3 is None without base3."""
    x0 = values - values[..., :1, :]
    xst = values[..., None, :, :] - values[..., :, None, :]
    x2 = base2[..., None, :, :, :] - base2[..., :, None, :, :] - np.einsum("...si,...stj->...stij", x0, xst)
    if base3 is None:
        return x2, None
    x3 = (
        base3[..., None, :, :, :, :]
        - base3[..., :, None, :, :, :]
        - np.einsum("...si,...stjk->...stijk", x0, x2)
        - np.einsum("...sij,...stk->...stijk", base2, xst)
    )
    return x2, x3


def entry_surface(values, base2, base3, word):
    """X^w_{s,t} over all grid pairs, (..., n+1, n+1), for a 1-based word w of length 2 or 3."""
    x2, x3 = chen_surfaces(values, base2, base3 if len(word) == 3 else None)
    return (x2 if len(word) == 2 else x3)[(..., *(i - 1 for i in word))]


def lift_surface(e, *word):
    """X^w_{s,t} of lift e over all grid pairs, (n+1, n+1)."""
    return entry_surface(e.level1.values, e.base2, e.base3, word)


def surface_columns(surface):
    """A stored surface X[..., s, t] as the column blocks [t - t0, s, ...] a `seminorms.column_kernel` reads.

    Each block is a fresh copy, as the kernel overwrites the blocks it is given.
    """
    return lambda t0, t1: np.moveaxis(surface[..., :t1, t0:t1], (-1, -2), (0, 1)).copy()
