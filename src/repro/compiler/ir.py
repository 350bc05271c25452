"""The loop-structured intermediate representation.

Workloads are written as trees of these nodes.  The same tree is consumed
twice:

* the **compiler passes** (Section 4 of the paper) walk it statically —
  symbolic bounds stay symbolic — and produce load hints;
* the **interpreter** (:mod:`repro.trace.interp`) executes it against a
  simulated address space with concrete bindings, emitting the reference
  trace.

Subscript expressions
---------------------
:class:`Affine` covers everything dependence testing can analyse
(``a*i + b*j + c``).  :class:`IndexLoad` represents a value loaded from an
index array (``b[i]`` used to subscript another array — the indirect
pattern).  :class:`Opaque` is an arbitrary runtime computation the compiler
cannot see through (hash probes, RNG indices).

Reference identities
--------------------
Every static memory-reference site gets a stable ``ref_id`` string when the
:class:`Program` is finalized (a deterministic pre-order walk).  Ref ids
are the analogue of load PCs: the hint table is keyed by them and the
hardware receives them with each request.
"""

from repro.compiler.symbols import ArrayDecl, PointerVar, Sym, Var


# ----------------------------------------------------------------------
# Subscript expressions
# ----------------------------------------------------------------------
class Runtime:
    """A loop-invariant constant whose value is only known at run time.

    Models a function parameter or loop-invariant local: the compiler can
    still analyse ``a[start + i]`` as affine in ``i`` (the constant term is
    simply unknown), while the interpreter calls ``sample(env, rng)`` to
    get the concrete value.
    """

    __slots__ = ("sample", "comment")

    def __init__(self, sample, comment="runtime-const"):
        self.sample = sample
        self.comment = comment

    def __repr__(self):
        return "Runtime(%s)" % self.comment


class Affine:
    """``sum(coef * var) + const`` over loop variables.

    ``const`` may be an int or a :class:`Runtime` unknown constant.
    """

    __slots__ = ("terms", "const")

    def __init__(self, terms=None, const=0):
        self.terms = dict(terms or {})
        self.const = const

    @classmethod
    def of(cls, var, coef=1, const=0):
        """Affine in a single variable: ``coef*var + const``."""
        return cls({var: coef}, const)

    @classmethod
    def constant(cls, value):
        return cls({}, value)

    def coef(self, var):
        return self.terms.get(var, 0)

    @property
    def vars(self):
        return set(self.terms)

    def evaluate(self, env, rng=None):
        """Evaluate with concrete variable bindings."""
        const = self.const
        value = const.sample(env, rng) if isinstance(const, Runtime) else const
        for var, coef in self.terms.items():
            value += coef * env[var.name]
        return value

    def __add__(self, other):
        if isinstance(other, int):
            if isinstance(self.const, Runtime):
                raise TypeError("cannot offset a Runtime constant term")
            return Affine(self.terms, self.const + other)
        if isinstance(self.const, Runtime) or isinstance(other.const, Runtime):
            raise TypeError("cannot add affines with Runtime constant terms")
        terms = dict(self.terms)
        for var, coef in other.terms.items():
            terms[var] = terms.get(var, 0) + coef
        return Affine(terms, self.const + other.const)

    def __repr__(self):
        parts = ["%d*%s" % (c, v.name) for v, c in self.terms.items()]
        parts.append(str(self.const))
        return "Affine(%s)" % "+".join(parts)


class IndexLoad:
    """An index loaded from another array: ``scale * b[sub] + offset``.

    Itself a memory reference (reading ``b[sub]``), so it carries its own
    ``ref_id``.  When an :class:`ArrayRef` subscript contains an IndexLoad,
    the indirect-analysis pass may emit an indirect prefetch instruction.
    """

    __slots__ = ("index_array", "sub", "scale", "offset", "ref_id")

    def __init__(self, index_array, sub, scale=1, offset=0):
        self.index_array = index_array
        self.sub = sub
        self.scale = scale
        self.offset = offset
        self.ref_id = None

    def __repr__(self):
        return "IndexLoad(%s[%r])" % (self.index_array.name, self.sub)


class Opaque:
    """A subscript the compiler cannot analyse.

    ``sample(env, rng)`` computes the concrete index at run time.
    """

    __slots__ = ("sample", "comment")

    def __init__(self, sample, comment="opaque"):
        self.sample = sample
        self.comment = comment

    def __repr__(self):
        return "Opaque(%s)" % self.comment


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
class Stmt:
    """Base class for IR statements."""

    __slots__ = ()


class Block(Stmt):
    """A statement sequence (the body of a loop or a whole program)."""

    __slots__ = ("stmts",)

    def __init__(self, stmts):
        self.stmts = list(stmts)


class ForLoop(Stmt):
    """``for (var = lower; var < upper; var += step) body``.

    ``upper`` may be an int or a :class:`Sym`; induction-variable
    recognition treats ``var`` as an induction variable either way, but
    reuse distances through symbolic bounds are unknown.
    """

    __slots__ = ("var", "lower", "upper", "step", "body", "loop_id",
                 "scope_boundary")

    def __init__(self, var, lower, upper, body, step=1,
                 scope_boundary=False):
        if step == 0:
            raise ValueError("loop step must be nonzero")
        self.var = var
        self.lower = lower
        self.upper = upper
        self.step = step
        self.body = body if isinstance(body, Block) else Block(body)
        self.loop_id = None
        #: True when each iteration calls into a separate function: the
        #: paper's analyses are intra-procedural, so loops inside the body
        #: do not see this loop as enclosing them.
        self.scope_boundary = scope_boundary


class WhileLoop(Stmt):
    """A loop with a statically-unknown trip count (pointer traversals).

    ``trips`` (int or Sym) tells the interpreter how many iterations to
    run; the compiler never looks at it.
    """

    __slots__ = ("trips", "body", "loop_id", "scope_boundary")

    def __init__(self, trips, body, scope_boundary=False):
        self.trips = trips
        self.body = body if isinstance(body, Block) else Block(body)
        self.loop_id = None
        self.scope_boundary = scope_boundary


class ArrayRef(Stmt):
    """A read or write of ``array[subs...]``."""

    __slots__ = ("array", "subs", "is_store", "ref_id")

    def __init__(self, array, subs, is_store=False):
        if len(subs) != array.rank:
            raise ValueError(
                "array %s has rank %d, got %d subscripts"
                % (array.name, array.rank, len(subs))
            )
        self.array = array
        self.subs = list(subs)
        self.is_store = is_store
        self.ref_id = None


class HeapRowRef(Stmt):
    """``buf[i][j]`` where ``buf`` is ``T **`` (Figure 4 of the paper).

    Expands to two references: loading the row pointer ``buf[i]``
    (``row_ref_id``) and accessing ``row[j]`` (``elem_ref_id``).  The row
    array must be a pointer array; each row is a heap array whose element
    size is ``elem_size``.
    """

    __slots__ = ("buf", "row_sub", "col_sub", "elem_size", "is_store",
                 "row_ref_id", "elem_ref_id")

    def __init__(self, buf, row_sub, col_sub, elem_size, is_store=False):
        if not buf.is_pointer:
            raise ValueError("HeapRowRef needs a pointer array")
        self.buf = buf
        self.row_sub = row_sub
        self.col_sub = col_sub
        self.elem_size = elem_size
        self.is_store = is_store
        self.row_ref_id = None
        self.elem_ref_id = None


class PtrLoop(Stmt):
    """``for (; p < end; p += step) body`` — an induction pointer loop.

    ``trips`` is the iteration count (int or Sym) for the interpreter; the
    compiler only sees that ``ptr`` advances by ``step`` bytes per
    iteration (Figure 5 of the paper).
    """

    __slots__ = ("ptr", "trips", "step", "body", "loop_id",
                 "scope_boundary")

    def __init__(self, ptr, trips, step, body, scope_boundary=False):
        if step == 0:
            raise ValueError("pointer step must be nonzero")
        self.ptr = ptr
        self.trips = trips
        self.step = step
        self.body = body if isinstance(body, Block) else Block(body)
        self.loop_id = None
        self.scope_boundary = scope_boundary


class PtrRef(Stmt):
    """``*p`` or ``p->f``: dereference of pointer ``ptr`` at ``offset``."""

    __slots__ = ("ptr", "offset", "size", "field", "is_store", "ref_id")

    def __init__(self, ptr, offset=0, size=8, field=None, is_store=False):
        self.ptr = ptr
        self.offset = offset
        self.size = size
        #: The :class:`Field` when this is a struct field access.
        self.field = field
        self.is_store = is_store
        self.ref_id = None


class PtrChase(Stmt):
    """``ptr = ptr->field`` — the recursive-pointer idiom (Figure 6).

    A memory reference (loading the field) plus an update of ``ptr``.
    """

    __slots__ = ("ptr", "field", "ref_id")

    def __init__(self, ptr, field):
        if not field.is_pointer:
            raise ValueError("PtrChase needs a pointer field")
        self.ptr = ptr
        self.field = field
        self.ref_id = None


class PtrAssignField(Stmt):
    """``dst = src->field`` — loading a pointer field into another cursor
    (tree traversals: ``child = node->left``)."""

    __slots__ = ("dst", "src", "field", "ref_id")

    def __init__(self, dst, src, field):
        if not field.is_pointer:
            raise ValueError("PtrAssignField needs a pointer field")
        self.dst = dst
        self.src = src
        self.field = field
        self.ref_id = None


class PtrAssignFromArray(Stmt):
    """``p = heads[sub]`` — loading a pointer from an array of pointers."""

    __slots__ = ("ptr", "array", "sub", "ref_id")

    def __init__(self, ptr, array, sub):
        if not array.is_pointer:
            raise ValueError("PtrAssignFromArray needs a pointer array")
        self.ptr = ptr
        self.array = array
        self.sub = sub
        self.ref_id = None


class PtrArrayRef(Stmt):
    """``p[sub]`` — an affine-subscripted access through a pointer base.

    The pointer is loop-invariant here (typically assigned from an array
    of row pointers outside the loop, the hoisted ``row = A[i]`` idiom);
    the subscript is an affine expression over enclosing loop variables,
    so dependence testing applies exactly as to a heap array with an
    unknown base.
    """

    __slots__ = ("ptr", "sub", "elem_size", "is_store", "ref_id")

    def __init__(self, ptr, sub, elem_size=8, is_store=False):
        self.ptr = ptr
        self.sub = sub
        self.elem_size = elem_size
        self.is_store = is_store
        self.ref_id = None


class PtrSelect(Stmt):
    """``ptr = choose(candidate fields)`` — data-dependent branch in a tree
    walk (``node = key < node->key ? node->left : node->right``).

    The interpreter picks one of ``fields`` via ``chooser(env, rng)``; the
    compiler sees a pointer-field load that updates a recurrent pointer
    when every candidate field targets the pointer's own struct.
    """

    __slots__ = ("ptr", "fields", "chooser", "ref_id")

    def __init__(self, ptr, fields, chooser=None):
        if not fields or not all(f.is_pointer for f in fields):
            raise ValueError("PtrSelect needs pointer fields")
        self.ptr = ptr
        self.fields = list(fields)
        self.chooser = chooser
        self.ref_id = None


class Compute(Stmt):
    """``ops`` non-memory instructions (ALU work between references)."""

    __slots__ = ("ops",)

    def __init__(self, ops):
        if ops < 0:
            raise ValueError("op count must be non-negative")
        self.ops = ops


# ----------------------------------------------------------------------
# Program
# ----------------------------------------------------------------------
class Program:
    """A complete IR program: body + declarations + default bindings.

    ``bindings`` resolves :class:`Sym` names to concrete values at
    interpretation time (the compiler ignores them).  :meth:`finalize`
    assigns stable ref ids and loop ids; it is idempotent and is called
    automatically by the compiler driver and interpreter.
    """

    def __init__(self, name, body, bindings=None):
        self.name = name
        self.body = body if isinstance(body, Block) else Block(body)
        self.bindings = dict(bindings or {})
        self._finalized = False
        #: Compiled trace functions by source key; filled and read by
        #: :func:`repro.trace.codegen.trace_program`.
        self.trace_functions = {}

    # ------------------------------------------------------------------
    def finalize(self):
        """Assign deterministic ref ids and loop ids (pre-order)."""
        if self._finalized:
            return self
        counter = {"ref": 0, "loop": 0}

        def next_ref():
            counter["ref"] += 1
            return "%s#r%d" % (self.name, counter["ref"])

        def next_loop():
            counter["loop"] += 1
            return "%s#L%d" % (self.name, counter["loop"])

        def walk(stmt):
            if isinstance(stmt, Block):
                for s in stmt.stmts:
                    walk(s)
            elif isinstance(stmt, (ForLoop, WhileLoop, PtrLoop)):
                stmt.loop_id = next_loop()
                walk(stmt.body)
            elif isinstance(stmt, ArrayRef):
                for sub in stmt.subs:
                    if isinstance(sub, IndexLoad):
                        sub.ref_id = next_ref()
                stmt.ref_id = next_ref()
            elif isinstance(stmt, HeapRowRef):
                stmt.row_ref_id = next_ref()
                stmt.elem_ref_id = next_ref()
            elif isinstance(stmt, (PtrRef, PtrArrayRef, PtrChase,
                                   PtrAssignField, PtrAssignFromArray,
                                   PtrSelect)):
                stmt.ref_id = next_ref()
            elif isinstance(stmt, Compute):
                pass
            else:
                raise TypeError("unknown IR node %r" % stmt)

        walk(self.body)
        self._finalized = True
        return self

    # ------------------------------------------------------------------
    def static_refs(self):
        """Yield every static reference site id (after finalize)."""
        self.finalize()
        out = []

        def walk(stmt):
            if isinstance(stmt, Block):
                for s in stmt.stmts:
                    walk(s)
            elif isinstance(stmt, (ForLoop, WhileLoop, PtrLoop)):
                walk(stmt.body)
            elif isinstance(stmt, ArrayRef):
                for sub in stmt.subs:
                    if isinstance(sub, IndexLoad):
                        out.append(sub.ref_id)
                out.append(stmt.ref_id)
            elif isinstance(stmt, HeapRowRef):
                out.append(stmt.row_ref_id)
                out.append(stmt.elem_ref_id)
            elif isinstance(stmt, (PtrRef, PtrArrayRef, PtrChase,
                                   PtrAssignField, PtrAssignFromArray,
                                   PtrSelect)):
                out.append(stmt.ref_id)

        walk(self.body)
        return out


# Convenience re-exports so workloads can import everything from one place.
__all__ = [
    "Affine",
    "ArrayDecl",
    "ArrayRef",
    "Block",
    "Compute",
    "ForLoop",
    "HeapRowRef",
    "IndexLoad",
    "Opaque",
    "PointerVar",
    "Program",
    "PtrArrayRef",
    "PtrAssignField",
    "PtrAssignFromArray",
    "PtrChase",
    "PtrLoop",
    "PtrRef",
    "PtrSelect",
    "Runtime",
    "Stmt",
    "Sym",
    "Var",
    "WhileLoop",
]
