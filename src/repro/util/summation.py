"""Running float totals that equal builtin ``sum()`` bit for bit.

A streamed aggregate must equal the ``sum()`` a stored log would have
given, and ``sum()`` of floats changed in Python 3.12: it went from
plain left-to-right addition to Neumaier-compensated summation, so
``sum([1e16, 1.0, -1e16])`` is ``0.0`` on 3.11 and ``1.0`` from 3.12
on.  :class:`PlainSum` reproduces the old rule and :class:`NeumaierSum`
the new one; :data:`RunningSum` is the one the running interpreter's
``sum()`` uses.

Both start from the int ``0``, as ``sum()`` does, so an empty total is
``0``.  :class:`NeumaierSum` compensates only float + float additions,
as ``sum()`` does.  Each matches its interpreters' ``sum()`` over
sequences of exact ``float`` values and over sequences of ``int``
values.
"""

from __future__ import annotations

import sys
from math import isfinite


class PlainSum:
    """Left-to-right addition: ``sum()`` up to Python 3.11."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def add(self, x: float) -> None:
        """Add one value to the total."""
        self.value += x


class NeumaierSum:
    """Neumaier-compensated addition: ``sum()`` from Python 3.12 on."""

    __slots__ = ("total", "compensation")

    def __init__(self) -> None:
        self.total: float = 0
        self.compensation = 0.0

    def add(self, x: float) -> None:
        """Add one value to the total."""
        total = self.total
        if x.__class__ is not float or total.__class__ is not float:
            # sum() compensates only float + float; its first float is
            # added to the int start plainly, and ints are added plainly.
            self.total = total + x
            return
        t = total + x
        if abs(total) >= abs(x):
            self.compensation += (total - t) + x
        else:
            self.compensation += (x - t) + total
        self.total = t

    @property
    def value(self) -> float:
        """The total, with the compensation folded in as ``sum()`` does.

        A zero compensation is not added, so a negative zero keeps its
        sign, and a non-finite one is not added, so an overflowed or
        infinite total does not turn into NaN.
        """
        c = self.compensation
        if c and isfinite(c):
            return self.total + c
        return self.total


#: The summation rule of this interpreter's builtin ``sum()``.
RunningSum = NeumaierSum if sys.version_info >= (3, 12) else PlainSum
