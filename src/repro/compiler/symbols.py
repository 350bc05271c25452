"""Symbol declarations shared by the IR, the compiler passes, and the
interpreter: arrays, structs with (possibly pointer) fields, scalar loop
variables, pointer variables, and symbolic constants.
"""


class Sym:
    """A symbolic constant (e.g. a loop bound unknown at compile time).

    The compiler treats ``Sym`` bounds as unknown; the interpreter resolves
    them through the program's binding environment.
    """

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return "Sym(%s)" % self.name

    def __eq__(self, other):
        return isinstance(other, Sym) and other.name == self.name

    def __hash__(self):
        return hash(("Sym", self.name))


class Var:
    """A scalar (loop induction) variable."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return "Var(%s)" % self.name

    def __eq__(self, other):
        return isinstance(other, Var) and other.name == self.name

    def __hash__(self):
        return hash(("Var", self.name))


class PointerVar:
    """A pointer variable (induction pointer or traversal cursor).

    ``struct`` names the pointed-to structure when known, which the
    pointer/recursive idiom analysis (Figure 8) relies on.
    """

    __slots__ = ("name", "struct")

    def __init__(self, name, struct=None):
        self.name = name
        self.struct = struct

    def __repr__(self):
        return "PointerVar(%s)" % self.name

    def __eq__(self, other):
        return isinstance(other, PointerVar) and other.name == self.name

    def __hash__(self):
        return hash(("PointerVar", self.name))


class Field:
    """One field of a struct."""

    __slots__ = ("name", "offset", "size", "is_pointer", "target")

    def __init__(self, name, offset, size, is_pointer=False, target=None):
        self.name = name
        self.offset = offset
        self.size = size
        self.is_pointer = is_pointer
        #: Name of the struct this pointer field points to (when known).
        self.target = target

    def __repr__(self):
        return "Field(%s @%d)" % (self.name, self.offset)


class StructDecl:
    """A C structure layout.

    Built with :meth:`add_scalar` / :meth:`add_pointer`; field offsets are
    assigned sequentially with natural alignment, like a C compiler would.
    """

    def __init__(self, name):
        self.name = name
        self.fields = {}
        self._next_offset = 0

    def _align(self, size):
        align = min(size, 8)
        self._next_offset = (self._next_offset + align - 1) & ~(align - 1)

    def add_scalar(self, name, size=8):
        """Append a non-pointer field; returns the :class:`Field`."""
        self._align(size)
        field = Field(name, self._next_offset, size)
        self.fields[name] = field
        self._next_offset += size
        return field

    def add_pointer(self, name, target=None):
        """Append a pointer field; ``target`` names the pointed-to struct."""
        self._align(8)
        field = Field(name, self._next_offset, 8, is_pointer=True,
                      target=target)
        self.fields[name] = field
        self._next_offset += 8
        return field

    @property
    def size(self):
        """Struct size, padded to 8-byte alignment."""
        return (self._next_offset + 7) & ~7

    def field(self, name):
        return self.fields[name]

    def __repr__(self):
        return "StructDecl(%s, %d fields, %dB)" % (
            self.name, len(self.fields), self.size,
        )


class ArrayDecl:
    """An array: element size, extents, layout, and storage class.

    ``dims`` may contain ints or :class:`Sym`.  ``layout`` is ``"row"``
    (C) or ``"col"`` (Fortran) — it determines which dimension is spatial.
    ``storage`` is ``"static"`` or ``"heap"``; the pointer prefetcher's
    base-and-bounds test only passes for heap addresses.  ``is_pointer``
    marks arrays whose elements are pointers (e.g. ``T **buf`` rows).
    """

    def __init__(self, name, elem_size, dims, layout="row", storage="static",
                 is_pointer=False):
        if layout not in ("row", "col"):
            raise ValueError("layout must be 'row' or 'col'")
        if storage not in ("static", "heap"):
            raise ValueError("storage must be 'static' or 'heap'")
        self.name = name
        self.elem_size = elem_size
        self.dims = list(dims)
        self.layout = layout
        self.storage = storage
        self.is_pointer = is_pointer
        #: Base address; assigned when the workload materializes the array.
        self.base = None

    @property
    def rank(self):
        return len(self.dims)

    def spatial_dim(self):
        """Index of the dimension that is contiguous in memory."""
        return self.rank - 1 if self.layout == "row" else 0

    def total_elems(self, bindings=None):
        """Total element count; symbolic dims resolved via ``bindings``."""
        total = 1
        for d in self.dims:
            if isinstance(d, Sym):
                if bindings is None or d.name not in bindings:
                    return None
                d = bindings[d.name]
            total *= d
        return total

    def size_bytes(self, bindings=None):
        total = self.total_elems(bindings)
        return None if total is None else total * self.elem_size

    def __repr__(self):
        return "ArrayDecl(%s%r x%dB, %s, %s)" % (
            self.name, self.dims, self.elem_size, self.layout, self.storage,
        )
