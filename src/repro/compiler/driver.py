"""Compiler driver: run all analysis passes over a program.

The output, :class:`CompileResult`, is everything the rest of the system
needs from the compiler:

* the :class:`~repro.compiler.hints.HintTable` the GRP hardware consults,
* the indirect-prefetch sites the interpreter turns into directives,
* the set of loops whose trip counts the interpreter announces via
  ``LoopBound`` directives (for variable-size regions).
"""

import hashlib

from repro.compiler.hints import HintTable
from repro.compiler.passes.indirect import detect_indirect
from repro.compiler.passes.pointer import generate_pointer_hints
from repro.compiler.passes.region import encode_region_hints
from repro.compiler.passes.spatial import POLICIES, generate_spatial_hints


class CompilerPolicy:
    """Named spatial-marking policies (Section 5.4)."""

    CONSERVATIVE = "conservative"
    DEFAULT = "default"
    AGGRESSIVE = "aggressive"
    ALL = POLICIES


class CompileResult:
    """Everything the compiler tells the hardware and the trace generator."""

    def __init__(self, program, hint_table, indirect_sites, bound_loops,
                 policy, indirect_mode="instruction"):
        self.program = program
        self.hint_table = hint_table
        #: {index_load_ref_id: IndirectInfo}
        self.indirect_sites = indirect_sites
        #: {loop_id} whose trip counts are conveyed via LoopBound directives
        self.bound_loops = bound_loops
        self.policy = policy
        #: "instruction" (explicit indirect prefetch instructions) or
        #: "hintbit" (Section 3.3.3's alternate encoding).
        self.indirect_mode = indirect_mode
        #: {loop_id: IndirectInfo} for hint-bit mode base directives.
        self.indirect_base_loops = {}
        if indirect_mode == "hintbit":
            for info in indirect_sites.values():
                if info.loop_id is not None:
                    self.indirect_base_loops[info.loop_id] = info

    def counts(self):
        """Table 3-style static hint counts."""
        return self.hint_table.counts()

    def fingerprint(self):
        """A digest of everything a run reads from this compile.

        Covers the hint table (every hint's bits and the summary
        counts), the indirect sites, the bound loops and the indirect
        mode; ``indirect_base_loops`` is derived from the sites and the
        mode.  ``program`` is fixed by the workload and scale, and
        ``policy`` is only the request that produced the rest, so both
        are left out: two policies whose compiles coincide fingerprint
        alike, and their runs are the same run.
        """
        table = self.hint_table
        hints = sorted(
            (repr(ref_id), h.spatial, h.pointer, h.recursive,
             h.region_coeff, h.indirect)
            for ref_id, h in table._hints.items())
        sites = sorted(
            (repr(ref_id), _array_key(info.target_array),
             _array_key(info.index_array), info.scale, info.offset,
             info.loop_id)
            for ref_id, info in self.indirect_sites.items())
        data = (hints, table.indirect_directives, table.total_refs, sites,
                sorted(self.bound_loops), self.indirect_mode)
        return hashlib.sha256(repr(data).encode("utf-8")).hexdigest()


def _array_key(array):
    return (array.name, array.base, array.elem_size)


def compile_hints(program, l2_size=1024 * 1024, block_size=64,
                  policy=CompilerPolicy.DEFAULT, variable_regions=True,
                  indirect=True, indirect_mode="instruction"):
    """Run the full Section 4 pipeline; return a :class:`CompileResult`."""
    program.finalize()
    table = HintTable()
    table.total_refs = len(program.static_refs())
    generate_spatial_hints(program, table, l2_size, block_size, policy)
    generate_pointer_hints(program, table)
    sites = (
        detect_indirect(program, table, block_size, mode=indirect_mode)
        if indirect
        else {}
    )
    bound_loops = (
        encode_region_hints(program, table, block_size)
        if variable_regions
        else set()
    )
    return CompileResult(program, table, sites, bound_loops, policy,
                         indirect_mode=indirect_mode)
