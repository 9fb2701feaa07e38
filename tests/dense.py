"""Dense views of the bitmask matrix, for tests that compare mask code
with the same operation written over row tuples."""


def rows_of(instance):
    """The instance's 0/1 matrix as a tuple of row tuples."""
    return tuple(tuple(mask >> j & 1 for j in range(instance.m))
                 for mask in instance.row_masks)
