"""Induction variable recognition, including induction pointers.

In this IR, ``ForLoop`` variables and ``PtrLoop`` pointers are induction
entities by construction, so "recognition" reduces to collecting them with
their steps and loop associations.  The pass still exists as a module
because every later analysis phrases its questions through it, mirroring
the structure of Figure 7 in the paper (the algorithm's first line is
``induction_variable_recognition()``).
"""

from repro.compiler.ir import ForLoop, PtrLoop
from repro.compiler.passes.nest import loops_in


class InductionInfo:
    """Lookup tables from induction variables/pointers to their loops."""

    def __init__(self):
        #: Var -> (ForLoop, step)
        self.vars = {}
        #: PointerVar -> (PtrLoop, byte step)
        self.pointers = {}

    @classmethod
    def analyze(cls, body):
        """Collect induction variables and pointers from a program body."""
        info = cls()
        for loop in loops_in(body):
            if isinstance(loop, ForLoop):
                info.vars[loop.var] = (loop, loop.step)
            elif isinstance(loop, PtrLoop):
                info.pointers[loop.ptr] = (loop, loop.step)
        return info

    def pointer_step(self, ptr):
        entry = self.pointers.get(ptr)
        return entry[1] if entry else None

    def pointer_loop(self, ptr):
        entry = self.pointers.get(ptr)
        return entry[0] if entry else None
