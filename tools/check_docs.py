"""CI gate: docstring coverage, scheme-doc freshness, uncalled code.

Part 1 walks every module under ``src/repro/`` with :mod:`ast` (no
imports, so a module with a syntax error or heavy import side effects
still gets checked) and enforces three thresholds:

* **every module** has a docstring (coverage 1.0),
* **every public class** has a docstring (coverage 1.0),
* **public functions and methods** meet :data:`FUNCTION_THRESHOLD`
  coverage (the helper-dense simulator modules keep this below 1.0;
  raise it as gaps close, never lower it).

Names starting with ``_`` are private and exempt, as are ``__init__``
and the other dunders (their contract is the class docstring's job).

Part 2 keeps the scheme documentation honest against the registry
(:data:`repro.sim.runner.SCHEMES`):

* ``docs/SCHEMES.md`` must match a fresh ``gen_scheme_docs`` render
  byte for byte (regenerated in memory, never written),
* every registered scheme name must appear in ``README.md``,
* both CLIs must *derive* their scheme enumerations from the registry
  (``sorted(SCHEMES)`` in the source), not restate them in prose.

Part 3 keeps code that nothing calls from coming back: a ``def`` or
``class`` anywhere under ``src/repro/`` (methods and nested functions
included) fails when its name, as a whole word, appears in no Python
file under ``src/``, ``tests/``, ``tools/``, ``benchmarks/`` or
``examples/`` other than at definitions of that name.  Dunders are
exempt (the language calls them), as are the definitions dispatched by
name, listed in :data:`DISPATCHED`: ``trace/codegen.py``'s ``_<Node>``
statement handlers (looked up as ``"_" + type(stmt).__name__``) and the
``@register``-decorated workload classes (looked up in the registry by
their ``name``).

Exit status is nonzero on any violation, listing every offender so the
fix is one pass.

Usage::

    python tools/check_docs.py            # docstrings + scheme docs
    python tools/check_docs.py --list     # also list undocumented funcs
"""

import argparse
import ast
import collections
import os
import re
import sys

#: Required docstring coverage per definition kind.
MODULE_THRESHOLD = 1.0
CLASS_THRESHOLD = 1.0
FUNCTION_THRESHOLD = 0.6

DEFAULT_ROOT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "repro")


def iter_modules(root):
    """Yield (dotted name, path) for every .py file under ``root``."""
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, os.path.dirname(root))
            dotted = rel[:-3].replace(os.sep, ".")
            if dotted.endswith(".__init__"):
                dotted = dotted[:-len(".__init__")]
            yield dotted, path


def is_public(name):
    """Public-API name: no leading underscore (dunders are not public)."""
    return not name.startswith("_")


def scan_module(dotted, path):
    """Collect (kind, qualified name, has_docstring) rows for one module."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    rows = [("module", dotted, ast.get_docstring(tree) is not None)]
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            if is_public(node.name):
                rows.append(("class", "%s.%s" % (dotted, node.name),
                             ast.get_docstring(node) is not None))
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if is_public(item.name):
                        rows.append((
                            "function",
                            "%s.%s.%s" % (dotted, node.name, item.name),
                            ast.get_docstring(item) is not None))
    # Module-level functions (walk() above only took methods, from class
    # bodies; take top-level defs here so nested closures stay exempt).
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if is_public(node.name):
                rows.append(("function", "%s.%s" % (dotted, node.name),
                             ast.get_docstring(node) is not None))
    return rows


#: Directories whose Python files count as uses of a ``src/`` definition.
CALLER_DIRS = ("src", "tests", "tools", "benchmarks", "examples")

#: Definitions reached by name lookup, not by their name in source:
#: (path under ``src/repro/``, name pattern) pairs, plus the decorator
#: that registers a class by its ``name`` attribute.
DISPATCHED = ((os.path.join("trace", "codegen.py"), re.compile(r"_[A-Z]")),)
REGISTERING_DECORATOR = "register"

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def iter_python_files(repo):
    """Yield every .py path under the :data:`CALLER_DIRS` of ``repo``."""
    for top in CALLER_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(repo, top)):
            dirnames[:] = sorted(name for name in dirnames
                                 if not name.startswith(".")
                                 and name != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def is_dispatched(rel, node):
    """True for a definition found by name lookup (see :data:`DISPATCHED`)."""
    for path, pattern in DISPATCHED:
        if rel == path and pattern.match(node.name):
            return True
    return isinstance(node, ast.ClassDef) and any(
        isinstance(dec, ast.Name) and dec.id == REGISTERING_DECORATOR
        for dec in node.decorator_list)


def find_uncalled(repo, root):
    """``path:line: name`` for each definition under ``root`` whose name
    appears nowhere in the caller files but at definitions."""
    mentions = collections.Counter()
    definitions = collections.Counter()
    candidates = []
    for path in iter_python_files(repo):
        with open(path) as handle:
            source = handle.read()
        mentions.update(_IDENTIFIER.findall(source))
        in_root = os.path.commonpath([path, root]) == root
        for node in ast.walk(ast.parse(source, filename=path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                definitions[node.name] += 1
                if in_root:
                    candidates.append((os.path.relpath(path, root), node))
    return [
        "%s:%d: %s" % (rel, node.lineno, node.name)
        for rel, node in candidates
        if mentions[node.name] <= definitions[node.name]
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not is_dispatched(rel, node)
    ]


def check_scheme_docs(repo):
    """Scheme-doc freshness/derivation violations, as message strings."""
    problems = []
    sys.path.insert(0, os.path.join(repo, "tools"))
    sys.path.insert(0, os.path.join(repo, "src"))
    try:
        import gen_scheme_docs
        from repro.sim.runner import SCHEMES
    finally:
        sys.path.pop(0)
        sys.path.pop(0)

    # Freshness: the committed page must equal a fresh render.
    committed_path = os.path.join(repo, "docs", "SCHEMES.md")
    fresh = gen_scheme_docs.render()
    if not os.path.exists(committed_path):
        problems.append("docs/SCHEMES.md is missing — run "
                        "`python tools/gen_scheme_docs.py`")
    else:
        with open(committed_path) as handle:
            committed = handle.read()
        if committed != fresh:
            for i, (got, want) in enumerate(
                    zip(committed.splitlines(), fresh.splitlines()), 1):
                if got != want:
                    problems.append(
                        "docs/SCHEMES.md is stale (first diff at line %d:"
                        " %r != %r) — run `python tools/gen_scheme_docs.py`"
                        % (i, got[:60], want[:60]))
                    break
            else:
                problems.append(
                    "docs/SCHEMES.md is stale (length differs) — run "
                    "`python tools/gen_scheme_docs.py`")

    # README coverage: every registered scheme is mentioned by name.
    with open(os.path.join(repo, "README.md")) as handle:
        readme = handle.read()
    for name in sorted(SCHEMES):
        if "`%s`" % name not in readme:
            problems.append("README.md never mentions scheme `%s` — its "
                            "scheme list has drifted from the registry"
                            % name)

    # Derivation: the CLIs must build their scheme enumerations from the
    # registry, not hand-maintained prose (source-pattern check).
    for rel in (os.path.join("src", "repro", "sim", "__main__.py"),
                os.path.join("src", "repro", "experiments", "__main__.py")):
        with open(os.path.join(repo, rel)) as handle:
            source = handle.read()
        if "sorted(SCHEMES)" not in source:
            problems.append("%s does not derive its scheme enumeration "
                            "from sorted(SCHEMES)" % rel)
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", default=DEFAULT_ROOT,
                        help="package directory to scan (default: "
                             "src/repro)")
    parser.add_argument("--list", action="store_true",
                        help="list undocumented functions even when the "
                             "threshold passes")
    args = parser.parse_args(argv)

    rows = []
    for dotted, path in iter_modules(args.root):
        rows.extend(scan_module(dotted, path))

    failed = False
    for kind, threshold in (("module", MODULE_THRESHOLD),
                            ("class", CLASS_THRESHOLD),
                            ("function", FUNCTION_THRESHOLD)):
        of_kind = [row for row in rows if row[0] == kind]
        documented = [row for row in of_kind if row[2]]
        coverage = len(documented) / len(of_kind) if of_kind else 1.0
        status = "ok" if coverage >= threshold else "FAIL"
        if coverage < threshold:
            failed = True
        print("%-8s  %4d/%4d documented  (%.1f%%, need %.0f%%)  %s"
              % (kind, len(documented), len(of_kind), 100.0 * coverage,
                 100.0 * threshold, status))
        missing = [row[1] for row in of_kind if not row[2]]
        if missing and (coverage < threshold
                        or (args.list and kind == "function")):
            for name in missing:
                print("  undocumented %s: %s" % (kind, name))

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scheme_problems = check_scheme_docs(repo)
    if scheme_problems:
        failed = True
        for problem in scheme_problems:
            print("scheme docs: %s" % problem)
    else:
        print("scheme docs: docs/SCHEMES.md fresh; README and CLIs track "
              "the registry")

    uncalled = find_uncalled(repo, os.path.abspath(args.root))
    if uncalled:
        failed = True
        for entry in uncalled:
            print("uncalled definition: %s" % entry)
    else:
        print("uncalled definitions: none")

    if failed:
        print("docs check FAILED", file=sys.stderr)
        return 1
    print("docs check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
