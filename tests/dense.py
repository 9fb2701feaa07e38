"""Dense views of the bitmask matrix, for tests that compare mask code
with the same operation written over row tuples, and the one way a test
hands a bare matrix to `pcover.tb`."""

from fractions import Fraction

from pcover.model import Instance


def rows_of(instance):
    """The instance's 0/1 matrix as a tuple of row tuples."""
    return tuple(tuple(mask >> j & 1 for j in range(instance.m))
                 for mask in instance.row_masks)


def masks_instance(row_masks, m):
    """An instance over these row masks and m columns, with zero costs,
    profits and target: `pcover.tb` reads a matrix through an instance's
    row masks and sparse index."""
    zero = Fraction(0)
    return Instance(tuple(row_masks), (zero,) * m, (zero,) * len(row_masks), zero)
