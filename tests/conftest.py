"""Helpers shared by the test modules."""

import numpy as np


def same_bits(a, b) -> bool:
    """a and b have one shape and the same raw bits, read as uint64 words:
    -0.0 is not 0.0, a NaN matches only a NaN of the same bits, and a float
    array never matches a complex one."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                                 np.ascontiguousarray(b).view(np.uint64))
