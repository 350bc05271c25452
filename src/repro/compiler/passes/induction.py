"""Induction variable recognition, including induction pointers.

In this IR, ``ForLoop`` variables and ``PtrLoop`` pointers are induction
entities by construction, so "recognition" reduces to collecting them with
their steps and loop associations.  Later passes read a ``ForLoop``'s
variable and step off the loop itself, so only the induction pointers are
tabled.  The pass still exists as a module
because every later analysis phrases its questions through it, mirroring
the structure of Figure 7 in the paper (the algorithm's first line is
``induction_variable_recognition()``).
"""

from repro.compiler.ir import PtrLoop
from repro.compiler.passes.nest import loops_in


class InductionInfo:
    """Lookup table from induction pointers to their loops."""

    def __init__(self):
        #: PointerVar -> (PtrLoop, byte step)
        self.pointers = {}

    @classmethod
    def analyze(cls, body):
        """Collect the induction pointers of a program body."""
        info = cls()
        for loop in loops_in(body):
            if isinstance(loop, PtrLoop):
                info.pointers[loop.ptr] = (loop, loop.step)
        return info

    def pointer_step(self, ptr):
        entry = self.pointers.get(ptr)
        return entry[1] if entry else None

    def pointer_loop(self, ptr):
        entry = self.pointers.get(ptr)
        return entry[0] if entry else None
