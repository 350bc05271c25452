"""Loop-nest traversal utilities shared by all analysis passes."""

from repro.compiler.ir import Block, ForLoop, PtrLoop, WhileLoop

LOOP_TYPES = (ForLoop, WhileLoop, PtrLoop)


def walk_with_loops(node, stack=()):
    """Yield ``(stmt, loop_stack)`` for every non-loop statement.

    ``loop_stack`` is the tuple of enclosing loop nodes, outermost first.
    Loops themselves are yielded too (with the stack *excluding* them), so
    passes that need per-loop context can filter on the node type.
    """
    if isinstance(node, Block):
        for stmt in node.stmts:
            yield from walk_with_loops(stmt, stack)
    elif isinstance(node, LOOP_TYPES):
        yield node, stack
        if getattr(node, "scope_boundary", False):
            # Each iteration calls a separate function: intra-procedural
            # analysis does not see this loop (or anything outside it) as
            # enclosing the body's references.
            yield from walk_with_loops(node.body, ())
        else:
            yield from walk_with_loops(node.body, stack + (node,))
    else:
        yield node, stack


def loops_in(node):
    """Yield every loop node in the subtree, outermost first."""
    for stmt, _ in walk_with_loops(node):
        if isinstance(stmt, LOOP_TYPES):
            yield stmt


def statements_in(loop):
    """Yield every non-loop statement anywhere inside ``loop``'s body."""
    for stmt, _ in walk_with_loops(loop.body):
        if not isinstance(stmt, LOOP_TYPES):
            yield stmt


def trip_count(loop):
    """Static trip count of a loop, or None when symbolic/unknown."""
    if isinstance(loop, ForLoop):
        if isinstance(loop.lower, int) and isinstance(loop.upper, int):
            span = loop.upper - loop.lower
            if span <= 0:
                return 0
            step = abs(loop.step)
            return (span + step - 1) // step
        return None
    if isinstance(loop, (WhileLoop, PtrLoop)):
        trips = loop.trips
        return trips if isinstance(trips, int) else None
    raise TypeError("not a loop: %r" % loop)
