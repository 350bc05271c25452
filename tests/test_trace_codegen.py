"""Compiled trace generation against the tree-walking oracle.

``Interpreter.run_columns`` runs the program compiled to Python
(:mod:`repro.trace.codegen`); ``Interpreter.run_events`` walks the node
tree.  Every test here builds the same program twice and asserts that the
two engines agree: byte-identical columns, ``ref_names`` and
``ref_count`` when the walker succeeds, and the same exception type and
message when it raises.

* a seeded fuzz over about 200 small generated programs, each run at
  several limits including 0, 1 and one that stops mid-loop;
* error behaviour: each failure the walker can raise is raised only when
  the walker reaches the failing statement under the same limit;
* single-run interpreters and the memo of compiled functions.
"""

import random

import pytest

from repro.compiler.driver import compile_hints
from repro.compiler.ir import (
    Affine,
    ArrayDecl,
    ArrayRef,
    Block,
    Compute,
    ForLoop,
    HeapRowRef,
    IndexLoad,
    Opaque,
    PointerVar,
    Program,
    PtrArrayRef,
    PtrAssignField,
    PtrAssignFromArray,
    PtrChase,
    PtrLoop,
    PtrRef,
    PtrSelect,
    Runtime,
    Sym,
    Var,
    WhileLoop,
)
from repro.compiler.symbols import StructDecl
from repro.mem.space import AddressSpace
from repro.trace.codegen import trace_program
from repro.trace.compiled import CompiledTrace
from repro.trace.interp import Interpreter
from repro.workloads.common import (
    build_binary_tree,
    build_linked_list,
    build_node_pointer_array,
    build_pointer_rows,
    materialize,
    store_index_array,
)

FUZZ_PROGRAMS = 200
VAR_NAMES = ("i", "j", "k")


# ----------------------------------------------------------------------
# Running both engines
# ----------------------------------------------------------------------
def columns(trace):
    return (trace.kinds.tobytes(), trace.f0.tobytes(), trace.f1.tobytes(),
            trace.f2.tobytes(), list(trace.ref_names), trace.ref_count)


def outcome(run):
    """``("ok", columns)`` or ``("raise", type, message)``."""
    try:
        return ("ok", columns(run()))
    except Exception as exc:  # the comparison is the point
        return ("raise", type(exc), str(exc))


class Case:
    """One program plus everything an interpreter for it needs."""

    def __init__(self, program, space, pointers=None, result=None,
                 seed=12345, ops_scale=1.0):
        self.program = program
        self.space = space
        self.pointers = pointers or {}
        self.result = result
        self.seed = seed
        self.ops_scale = ops_scale

    def interpreter(self):
        interp = Interpreter(self.program, self.space, self.result,
                             seed=self.seed, ops_scale=self.ops_scale)
        for name, addr in self.pointers.items():
            interp.bind_pointer(name, addr)
        return interp

    def walker(self, limit):
        return outcome(lambda: CompiledTrace.from_events(
            self.interpreter().run_events(limit)))

    def compiled(self, limit):
        return outcome(lambda: self.interpreter().run_columns(limit))


def failure_report(case, limit, context):
    lowered = trace_program(case.program, case.result, 64, case.ops_scale)
    return "limit=%r\n%s\ngenerated source:\n%s" % (limit, context,
                                                   lowered.source)


def assert_engines_agree(case, limit, context):
    want = case.walker(limit)
    got = case.compiled(limit)
    assert got == want, failure_report(case, limit, context)
    return want


# ----------------------------------------------------------------------
# Program description (printed when a fuzz case fails)
# ----------------------------------------------------------------------
def describe_sub(sub):
    if isinstance(sub, Affine):
        terms = " + ".join("%d*%s" % (c, v.name) for v, c in
                           sub.terms.items())
        return "(%s + %r)" % (terms or "0", sub.const)
    if isinstance(sub, IndexLoad):
        return "%d*%s[%s] + %d" % (sub.scale, sub.index_array.name,
                                   describe_sub(sub.sub), sub.offset)
    return repr(sub)


def describe(stmt, depth=0):
    pad = "  " * depth
    if isinstance(stmt, Block):
        return "\n".join(describe(s, depth) for s in stmt.stmts) or pad + "pass"
    if isinstance(stmt, ForLoop):
        head = "for %s in %r..%r step %d:" % (stmt.var.name, stmt.lower,
                                              stmt.upper, stmt.step)
    elif isinstance(stmt, WhileLoop):
        head = "while x%r:" % (stmt.trips,)
    elif isinstance(stmt, PtrLoop):
        head = "ptrloop %s x%r step %d:" % (stmt.ptr.name, stmt.trips,
                                            stmt.step)
    else:
        fields = []
        for slot in type(stmt).__slots__:
            value = getattr(stmt, slot)
            if slot == "subs":
                value = [describe_sub(s) for s in value]
            elif slot in ("sub", "row_sub", "col_sub"):
                value = describe_sub(value)
            elif hasattr(value, "name"):
                value = value.name
            fields.append("%s=%s" % (slot, value))
        return pad + "%s(%s)" % (type(stmt).__name__, ", ".join(fields))
    return pad + head + "\n" + describe(stmt.body, depth + 1)


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------
class ProgramFuzzer:
    """Builds one small random program and its address space."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)
        self.space = AddressSpace()
        self.bindings = {}
        self.pointers = {}
        self.free_var_prob = self.rng.choice((0.0, 0.05))
        self._make_data()

    def _sym_or_int(self, value, prefix):
        """``value`` itself or a ``Sym`` bound to it."""
        if self.rng.random() < 0.3:
            name = "%s%d" % (prefix, len(self.bindings))
            self.bindings[name] = value
            return Sym(name)
        return value

    def _make_data(self):
        rng, space = self.rng, self.space
        self.arrays = []
        for a in range(rng.randint(1, 3)):
            rank = rng.randint(1, 3)
            dims = [self._sym_or_int(rng.randint(2, 6), "d")
                    for _ in range(rank)]
            decl = ArrayDecl("a%d" % a, rng.choice((4, 8)), dims,
                             layout=rng.choice(("row", "col")),
                             storage=rng.choice(("static", "heap")))
            materialize(space, decl, self.bindings)
            self.arrays.append(decl)
        self.index = ArrayDecl("idx", 4, [16], storage="heap")
        materialize(space, self.index)
        store_index_array(space, self.index,
                          [rng.randrange(8) for _ in range(16)])

        node = StructDecl("node")
        node.add_scalar("val", 8)
        self.next = node.add_pointer("next", target="node")
        self.left = node.add_pointer("left", target="node")
        self.right = node.add_pointer("right", target="node")
        self.node = node
        head = build_linked_list(space, node, rng.randint(2, 6),
                                 layout=rng.choice(("sequential",
                                                    "shuffled")),
                                 rng=random.Random(rng.random()))
        root = build_binary_tree(space, node, 7)
        self.heads = ArrayDecl("heads", 8, [4], storage="heap",
                               is_pointer=True)
        slots = [head, root, head, root]
        if rng.random() < 0.1:
            slots[rng.randrange(4)] = 0  # a null slot to trip over
        build_node_pointer_array(space, self.heads, slots)
        self.rows = ArrayDecl("rows", 8, [6], storage="heap",
                              is_pointer=True)
        build_pointer_rows(space, self.rows, rng.choice((4, 6)), 64)
        self.region = space.malloc(512)

        self.list_ptr = PointerVar("p", struct="node")
        self.tree_ptr = PointerVar("q", struct="node")
        self.walk_ptr = PointerVar("r", struct="node")
        self.scan_ptr = PointerVar("s")
        self.pointers = {"p": head, "q": root, "s": self.region}

    # ------------------------------------------------------------------
    def sampler(self):
        """A stateless ``(env, rng)`` sampler, some reading ``env``."""
        span = self.rng.randint(1, 5)
        reads = self.rng.choice((None,) + VAR_NAMES)

        def sample(env, r):
            base = env.get(reads, -1) if reads else 0
            return r.randrange(span) + base

        return sample

    def affine(self, bound):
        rng = self.rng
        terms = {}
        for name in rng.sample(bound, min(len(bound), rng.randint(0, 2))):
            terms[Var(name)] = rng.choice((-1, 0, 1, 2))
        if rng.random() < self.free_var_prob:
            terms[Var(rng.choice(VAR_NAMES))] = 1
        if rng.random() < 0.2:
            const = Runtime(self.sampler(), "fuzz runtime")
        else:
            const = rng.randint(-1, 3)
        return Affine(terms, const)

    def subscript(self, bound):
        roll = self.rng.random()
        if roll < 0.15:
            return IndexLoad(self.index, self.affine(bound),
                             scale=self.rng.choice((1, 2)),
                             offset=self.rng.choice((0, 1)))
        if roll < 0.3:
            return Opaque(self.sampler(), "fuzz opaque")
        return self.affine(bound)

    def loop(self, depth, bound):
        rng = self.rng
        kind = rng.choice(("for", "for", "for", "while", "ptr"))
        if kind == "for":
            name = rng.choice(VAR_NAMES)
            step = rng.choice((1, 1, 2, 3, -1, -2))
            lower = rng.randint(-2, 4)
            trips = rng.choice((0, 1, 2, 3, 4, 5, 6, 7))
            upper = lower + trips * step - (1 if step > 0 else -1) * \
                rng.randint(0, abs(step) - 1)
            body = self.block(depth + 1, bound + [name])
            return ForLoop(Var(name), self._sym_or_int(lower, "lo"),
                           self._sym_or_int(upper, "hi"), body, step=step)
        trips = self._sym_or_int(rng.choice((-1, 0, 1, 2, 3, 4, 5, 6)), "n")
        body = self.block(depth + 1, bound)
        if kind == "while":
            return WhileLoop(trips, body)
        return PtrLoop(self.scan_ptr, trips, rng.choice((8, 16, -8)), body)

    def statement(self, depth, bound):
        rng = self.rng
        if depth < 3 and rng.random() < (0.6, 0.45, 0.3)[depth]:
            return self.loop(depth, bound)
        kind = rng.choice((
            "array", "array", "array", "array", "compute", "compute",
            "heaprow", "ptrref", "ptrarray", "chase", "select",
            "assign_field", "assign_array"))
        if kind == "array":
            decl = rng.choice(self.arrays)
            return ArrayRef(decl, [self.subscript(bound)
                                   for _ in range(decl.rank)],
                            is_store=rng.random() < 0.3)
        if kind == "compute":
            return Compute(rng.randint(0, 6))
        if kind == "heaprow":
            row = Affine.constant(rng.randrange(4))
            if rng.random() < 0.2:  # may reach a null row
                row = Affine({Var(n): 1 for n in bound[-1:]}, 1)
            return HeapRowRef(self.rows, row, self.subscript(bound),
                              rng.choice((4, 8)),
                              is_store=rng.random() < 0.3)
        if kind == "ptrref":
            if rng.random() < 0.5:
                return PtrRef(self.scan_ptr, offset=rng.choice((0, 8)),
                              size=rng.choice((4, 8)))
            return PtrRef(self.list_ptr, field=self.node.field("val"),
                          is_store=rng.random() < 0.3)
        if kind == "ptrarray":
            return PtrArrayRef(self.scan_ptr, self.subscript(bound),
                               elem_size=rng.choice((4, 8)))
        if kind == "chase":
            return PtrChase(self.list_ptr, self.next)
        if kind == "select":
            fields = [self.left, self.right]
            chooser = None
            if rng.random() < 0.5:
                reads = rng.choice(VAR_NAMES)

                def chooser(env, r):
                    return fields[(env.get(reads, 0) + r.randrange(2)) % 2]

            return PtrSelect(self.tree_ptr, fields, chooser)
        if kind == "assign_field":
            return PtrAssignField(self.walk_ptr,
                                  rng.choice((self.list_ptr, self.tree_ptr)),
                                  rng.choice((self.next, self.left)))
        return PtrAssignFromArray(self.walk_ptr, self.heads,
                                  Affine.constant(rng.randrange(4)))

    def block(self, depth, bound):
        return Block([self.statement(depth, bound)
                      for _ in range(self.rng.randint(1, 5))])

    def case(self):
        program = Program("fuzz%d" % self.seed, self.block(0, []),
                          bindings=self.bindings).finalize()
        result = None
        if self.rng.random() < 0.5:
            result = compile_hints(
                program, l2_size=1 << 16, block_size=64,
                indirect_mode=self.rng.choice(("instruction", "hintbit")))
        return Case(program, self.space, self.pointers, result,
                    seed=self.rng.randrange(1 << 30),
                    ops_scale=self.rng.choice((1.0, 2.5, 9.5)))


class TestFuzz:
    @pytest.mark.parametrize("seed", range(FUZZ_PROGRAMS))
    def test_generated_program(self, seed):
        case = ProgramFuzzer(seed).case()
        context = "fuzz seed %d:\n%s" % (seed, describe(case.program.body))
        full = assert_engines_agree(case, None, context)
        total = full[1][-1] if full[0] == "ok" else 20
        rng = random.Random(seed)
        limits = {0, 1, total, total + 3}
        if total > 2:
            limits.add(rng.randrange(2, total))  # stops mid-loop
        for limit in sorted(limits):
            assert_engines_agree(case, limit, context)

    def test_fuzz_reaches_every_statement_kind(self):
        """The generator's programs cover every kind the walker handles."""
        kinds = set()

        def walk(stmt):
            kinds.add(type(stmt))
            if isinstance(stmt, Block):
                for s in stmt.stmts:
                    walk(s)
            elif hasattr(stmt, "body"):
                walk(stmt.body)

        for seed in range(FUZZ_PROGRAMS):
            walk(ProgramFuzzer(seed).case().program.body)
        assert kinds == set(Interpreter._HANDLERS)


# ----------------------------------------------------------------------
# Error behaviour
# ----------------------------------------------------------------------
def stream_program(tail, name="err"):
    """Four unit-stride refs, then ``tail``: the limit decides whether
    execution reaches the failing statement."""
    space = AddressSpace()
    a = ArrayDecl("ok", 8, [64], storage="heap")
    materialize(space, a)
    i = Var("i")
    program = Program(name, [
        ForLoop(i, 0, 4, [ArrayRef(a, [Affine.of(i)]), Compute(3)]),
        tail(space),
    ], bindings={"half": 2.5})
    return program, space


def unmaterialized_array(space):
    return ArrayRef(ArrayDecl("ghost", 8, [8]), [Affine.constant(0)])


def unbound_pointer(space):
    return PtrRef(PointerVar("nowhere"))


def unbound_loop_pointer(space):
    return PtrLoop(PointerVar("nowhere"), 2, 8, [Compute(1)])


def unbound_sym(space):
    b = ArrayDecl("b", 8, [8], storage="heap")
    materialize(space, b)
    return ForLoop(Var("j"), 0, Sym("missing"),
                   [ArrayRef(b, [Affine.of(Var("j"))])])


def unbound_dim(space):
    b = ArrayDecl("b", 8, [Sym("missing")], storage="heap")
    b.base = space.malloc(64)
    return ArrayRef(b, [Affine.constant(0)])


def unbound_variable(space):
    b = ArrayDecl("b", 8, [8], storage="heap")
    materialize(space, b)
    return ArrayRef(b, [Affine.of(Var("never"))])


def fractional_trips(space):
    return WhileLoop(Sym("half"), [Compute(1)])


def null_heap_row(space):
    rows = ArrayDecl("rows", 8, [4], storage="heap", is_pointer=True)
    build_pointer_rows(space, rows, 2, 64)  # rows 2 and 3 stay null
    return HeapRowRef(rows, Affine.constant(3), Affine.constant(0), 8)


def null_pointer_slot(space):
    heads = ArrayDecl("heads", 8, [2], storage="heap", is_pointer=True)
    build_node_pointer_array(space, heads, [space.malloc(64), 0])
    return PtrAssignFromArray(PointerVar("h"), heads, Affine.constant(1))


#: failure -> (tail builder, exception type, smallest limit that reaches
#: it).  A failure that follows its statement's first reference (a null
#: slot is found by loading it) needs that reference to fit the limit.
FAILURES = {
    "unmaterialized_array": (unmaterialized_array, RuntimeError, 4),
    "unbound_pointer": (unbound_pointer, KeyError, 4),
    "unbound_loop_pointer": (unbound_loop_pointer, KeyError, 4),
    "unbound_sym": (unbound_sym, KeyError, 4),
    "unbound_dim": (unbound_dim, KeyError, 4),
    "unbound_variable": (unbound_variable, KeyError, 4),
    "fractional_trips": (fractional_trips, TypeError, 4),
    "null_heap_row": (null_heap_row, RuntimeError, 5),
    "null_pointer_slot": (null_pointer_slot, RuntimeError, 5),
}


class TestErrorBehaviour:
    @pytest.mark.parametrize("failure", sorted(FAILURES))
    def test_raises_where_the_walker_raises(self, failure):
        tail, exc_type, reach = FAILURES[failure]
        program, space = stream_program(tail)
        case = Case(program, space)
        for limit in (None, reach, reach + 1, 100):
            got = assert_engines_agree(case, limit, failure)
            assert got[:2] == ("raise", exc_type)

    @pytest.mark.parametrize("failure", sorted(FAILURES))
    def test_limit_cuts_off_the_failing_statement(self, failure):
        tail, _, reach = FAILURES[failure]
        program, space = stream_program(tail)
        case = Case(program, space)
        for limit in range(reach):
            got = assert_engines_agree(case, limit, failure)
            assert got[0] == "ok"
            assert got[1][-1] == limit

    def test_lowering_never_fails_early(self):
        """Every failure is deferred to run time: lowering succeeds."""
        for failure, (tail, _, _) in sorted(FAILURES.items()):
            program, _ = stream_program(tail, name=failure)
            assert trace_program(program).total_refs >= 4


# ----------------------------------------------------------------------
# Single-run interpreters and the memo
# ----------------------------------------------------------------------
def small_case():
    program, space = stream_program(
        lambda space: WhileLoop(100, [Compute(1)]))
    return Case(program, space)


class TestSingleRun:
    @pytest.mark.parametrize("first,second", [
        ("run_columns", "run_columns"),
        ("run_events", "run_columns"),
        ("run_columns", "run_events"),
        ("run_events", "run_events"),
    ])
    def test_second_run_raises(self, first, second):
        interp = small_case().interpreter()
        getattr(interp, first)(2)
        with pytest.raises(RuntimeError):
            getattr(interp, second)(2)

    def test_second_generator_run_raises(self):
        interp = small_case().interpreter()
        list(interp.run(2))
        with pytest.raises(RuntimeError):
            list(interp.run(2))

    def test_failed_run_still_counts(self):
        """A run that raised consumed the interpreter too."""
        program, space = stream_program(unmaterialized_array)
        interp = Case(program, space).interpreter()
        with pytest.raises(RuntimeError, match="never materialized"):
            interp.run_columns()
        with pytest.raises(RuntimeError, match="runs once"):
            interp.run_columns()


class TestMemo:
    def test_coinciding_inputs_share_one_function(self):
        case = small_case()
        first = trace_program(case.program, None, 64, 1.0)
        assert trace_program(case.program, None, 64, 1.0) is first
        assert trace_program(case.program, None, 64, 2.0) is not first

    def test_equal_compile_results_share_one_function(self):
        case = small_case()
        a = compile_hints(case.program, l2_size=1 << 16)
        b = compile_hints(case.program, l2_size=1 << 16)
        assert a is not b
        assert trace_program(case.program, a) is trace_program(
            case.program, b)
