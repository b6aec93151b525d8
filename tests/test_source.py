"""Rules on the package source itself."""

import ast
import dataclasses
import inspect
from pathlib import Path

from trajquad.cli import main
from trajquad.exactalg import MultiPoly
from trajquad.greens import WaveProfile

from test_cli import readme_examples

SRC = Path(__file__).resolve().parents[1] / "src" / "trajquad"


def test_no_assert_in_src():
    # invariants raise MethodError so that they survive python -O
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/trajquad: {found}"


def test_every_import_is_used():
    # an imported name the module never references is a leftover of code
    # that has gone.  __init__.py is held to the same rule, so no re-export
    # list can return: library names are imported from their modules
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = [(node.lineno, alias.asname or alias.name.split(".")[0])
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line}:{name}" for line, name in imported
                   if name not in used]
    assert not unused, f"imports nothing in their module uses: {unused}"


# the exact half, and the modules of the numeric half it must not import
_EXACT_HALF = ("exactalg.py", "oscpert.py", "coulomb.py", "excited.py",
               "errors.py")
_NUMERIC = {"numpy", "numerics", "trajectory", "gexpand", "greens", "oracle"}


def test_exact_half_imports_no_numerics():
    # the exact recursions run on integers and Fractions alone; numpy or a
    # grid layer imported here (coulomb once imported both) would tie them
    # to the numeric half
    found = []
    for name in _EXACT_HALF:
        for node in ast.walk(ast.parse((SRC / name).read_text(), name)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # "from . import greens" names the module among its aliases
                modules = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            if any(_NUMERIC & set(m.split(".")) for m in modules):
                found.append(f"{name}:{node.lineno}")
    assert not found, f"numeric imports in the exact half: {found}"


def test_kernels_leave_the_integer_format_through_exactalg():
    # MultiPoly is the kernels' (numerators, denominator) format with names
    # attached, so a result leaves a kernel as it is.  A second constructor
    # or a converter to and from Fractions in exactalg, or a Fraction in a
    # kernel, would bring back a second format to cross into
    found = [f"exactalg.py:{node.lineno}: defines {node.name}"
             for node in ast.walk(ast.parse((SRC / "exactalg.py").read_text()))
             if isinstance(node, ast.FunctionDef) and node.name in
             ("_make", "_to_poly", "_from_poly", "_as_fraction")]
    for name in ("coulomb.py", "oscpert.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text(), name)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "fractions" for m in modules):
                found.append(f"{name}:{node.lineno}: imports fractions")
    assert not found, f"a second exact format beside MultiPoly: {found}"


def _imported_modules(node) -> list:
    """The full names an import statement loads; ``from . import x`` in
    the package loads ``trajquad.x``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = node.module or ""
    if node.level:
        base = f"trajquad.{base}" if base else "trajquad"
    if base == "trajquad":
        return [f"trajquad.{alias.name}" for alias in node.names]
    return [base]


# the modules one exact command executes: cli, the two layers it imports
# at module level, and the command's own layer
_EXACT_PATH = ("cli.py", "exactalg.py", "oscpert.py", "coulomb.py",
               "excited.py")


def test_exact_path_imports_no_heavy_stdlib():
    # dataclasses pulls in inspect, ast, dis and tokenize, fractions pulls
    # in decimal, and typing costs ≈8 ms where site has not loaded it: in
    # all, more than an exact command's job.  argparse, which loads gettext
    # and locale, took a fifth of the smallest job and half the import;
    # cli reads argv from its own flag table.  Of the exact path only
    # excited, whose frequencies are rationals, takes fractions.  cli
    # imports at module level only the layers every command uses and
    # loads the others through _lazy on first use
    found = []
    for name in _EXACT_PATH:
        for node in ast.walk(ast.parse((SRC / name).read_text(), name)):
            for module in _imported_modules(node):
                top = module.split(".")[0]
                if top in ("dataclasses", "typing", "argparse") or \
                        (top == "fractions" and name != "excited.py"):
                    found.append(f"{name}:{node.lineno}: imports {module}")
    deferred = {f"trajquad.{path.stem}" for path in SRC.glob("*.py")} - {
        "trajquad.__init__", "trajquad.errors", "trajquad.exactalg"}
    for node in ast.parse((SRC / "cli.py").read_text()).body:
        found += [f"cli.py:{node.lineno}: imports {module} eagerly"
                  for module in _imported_modules(node) if module in deferred]
    assert not found, f"imports off the light exact path: {found}"


def test_one_sampled_dbar_path():
    # a WaveProfile is samples alone, so greens-check runs the D̄ that a
    # sampled source gets.  A field holding S or f as a function, or a
    # callable test in greens.py, would bring back a second branch that
    # only profiles carrying functions reach
    fields = tuple(f.name for f in dataclasses.fields(WaveProfile))
    assert fields == ("nodes", "s", "values"), f"WaveProfile fields: {fields}"
    text = (SRC / "greens.py").read_text()
    found = [f"greens.py:{i}" for i, line in enumerate(text.splitlines(), 1)
             if "callable(" in line]
    assert not found, f"callable tests in greens.py: {found}"


def test_hierarchy_differentiates_nothing_on_the_grid():
    # every slope of the g⁻¹ hierarchy comes from the polynomial: origin
    # jets and closed forms.  A Neville fill or a stencil derivative in
    # gexpand.py would bring back the float towers and their origin noise,
    # and Fractions would bring back an exact kernel the float origin and
    # ν = √v'' cannot feed
    found = []
    for node in ast.walk(ast.parse((SRC / "gexpand.py").read_text())):
        names = [a.name for a in node.names] \
            if isinstance(node, ast.ImportFrom) else []
        found += [f"gexpand.py:{node.lineno}: imports {name}" for name in
                  names + _imported_modules(node)
                  if name in ("neville_at", "derivative", "fractions")]
    assert not found, f"grid or exact tools in gexpand.py: {found}"


def test_one_window_kernel_and_one_horner():
    # every 5-point rule runs through numerics._windows, and every grid-half
    # polynomial through numerics._horner: a second window layout or a
    # numpy.polynomial evaluator would be a second copy of either
    tree = ast.parse((SRC / "numerics.py").read_text())
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "sliding_window_view"]
    assert len(calls) == 1, f"sliding_window_view calls in numerics.py: {calls}"
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            modules = _imported_modules(node)
            if isinstance(node, ast.ImportFrom) and not node.level:
                # "from numpy import polynomial" names it among the aliases
                modules += [f"{node.module}.{a.name}" for a in node.names]
            found += [f"{path.name}:{node.lineno}: imports {module}"
                      for module in modules
                      if module.startswith("numpy.polynomial")]
    assert not found, f"numpy.polynomial in src/trajquad: {found}"
    # both oracles and the trajectory read their potential as float
    # coefficients for _horner; an exact object's evaluate in a grid
    # module or the CLI would be a second evaluator
    for name in ("cli.py", "trajectory.py", "gexpand.py", "greens.py",
                 "oracle.py", "numerics.py"):
        found += [f"{name}:{node.lineno}: calls .evaluate"
                  for node in ast.walk(ast.parse((SRC / name).read_text()))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", None) == "evaluate"]
    assert not found, f"evaluate calls in the grid half: {found}"


def test_no_numerics_function_calls_itself():
    # the kernels are whole-array rules of a fixed size: one call of the
    # integrand or one matrix product, never a recursion whose depth
    # depends on the data
    tree = ast.parse((SRC / "numerics.py").read_text())
    found = [f"numerics.py:{call.lineno}: {fn.name}"
             for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for call in ast.walk(fn) if isinstance(call, ast.Call)
             and getattr(call.func, "id", None) == fn.name]
    assert not found, f"recursive functions in numerics.py: {found}"


def _defined_names(cls: ast.ClassDef) -> set:
    """The names a class defines: its methods, class attributes and the
    attributes its methods assign on ``self``."""
    names = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return names | {n.attr for n in ast.walk(cls)
                    if isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == "self"}


def _unused_public_names(trees: dict) -> tuple:
    """(functions and classes, methods) of ``trees`` that no other code uses.

    A public module-level function or class is used when another top-level
    statement references its name.  A public method of a public class is
    used when an attribute of its name is read outside the method's own
    body, except inside another class that defines that name itself: there
    the read is of that class's own member.
    """
    # (module, top-level statement, every name and attribute it references)
    statements = [(name, node, {n.id if isinstance(n, ast.Name) else n.attr
                                for n in ast.walk(node)
                                if isinstance(n, (ast.Name, ast.Attribute))})
                  for name, tree in trees.items() for node in tree.body]
    unused = [f"{name}:{node.name}" for name, node, _ in statements
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and not any(node.name in refs for _, other, refs in statements
                          if other is not node)]
    # each attribute with the innermost class around it, if any
    classes = [n for tree in trees.values() for n in ast.walk(tree)
               if isinstance(n, ast.ClassDef)]
    defines = {id(c): _defined_names(c) for c in classes}
    inside = {id(a): c for c in classes for a in ast.walk(c)
              if isinstance(a, ast.Attribute)}
    attributes = [n for tree in trees.values() for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)]
    unused_methods = []
    for name, cls, _ in statements:
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                own = {id(n) for n in ast.walk(fn)}
                if not any(a.attr == fn.name and id(a) not in own
                           and (inside.get(id(a), cls) is cls
                                or fn.name not in defines[id(inside[id(a)])])
                           for a in attributes):
                    unused_methods.append(f"{name}:{cls.name}.{fn.name}")
    return unused, unused_methods


def test_every_public_function_is_used():
    # a public module-level function or class that no other src/ code uses
    # is a test-only reference; it belongs in its test.  The public methods,
    # classmethods and properties of public classes are held to the same
    # rule, owner by owner.  Private and dunder methods are exempt.
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    unused, unused_methods = _unused_public_names(trees)
    assert not unused, f"public names nothing in src/trajquad uses: {unused}"
    assert not unused_methods, \
        f"public methods nothing in src/trajquad uses: {unused_methods}"


# a public property read only inside another class that keeps an attribute
# of the same name, as TrajectoryGrid.s0 once was read only as _Forms.s0
_SHADOWED = """
class Grid:
    @property
    def s0(self):
        return 0.0


class _Forms:
    def __init__(self, grid: Grid):
        self.s0 = 1.0

    def value(self):
        return self.s0
"""


def test_use_rule_counts_reads_per_owner():
    tree = ast.parse(_SHADOWED)
    assert _unused_public_names({"m.py": tree}) == ([], ["m.py:Grid.s0"])
    # a read outside any class, or in a class without its own s0, counts
    for use in ("def use(grid):\n    return grid.s0\n",
                "class Reader:\n    def use(self, grid):\n"
                "        return grid.s0\n"):
        tree = ast.parse(_SHADOWED + use)
        assert "m.py:Grid.s0" not in _unused_public_names({"m.py": tree})[1]


def test_every_multipoly_method_is_called_by_a_command(monkeypatch, capsys):
    # MultiPoly is the exact half's boundary type: it carries only what
    # commands call, while the ring and calculus operators the tests check
    # the kernels with live in tests/polyring.py.  Each public and dunder
    # method must run in some README example (together they cover all
    # seven commands); __repr__ is pytest's failure text
    called = set()
    methods = []
    for name, raw in list(vars(MultiPoly).items()):
        if name.startswith("_") and not name.startswith("__"):
            continue
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        if not inspect.isfunction(fn):
            continue

        def counted(*args, _name=name, _fn=fn, **kwargs):
            called.add(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(MultiPoly, name, kind(counted) if kind else counted)
        methods.append(name)
    for argv in readme_examples():
        assert main(argv) == 0, argv
    capsys.readouterr()
    uncalled = sorted(set(methods) - called - {"__repr__"})
    assert not uncalled, f"MultiPoly methods no command calls: {uncalled}"


# the operators tests/polyring.py's Poly adds to MultiPoly for the references
_ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__neg__", "__pow__", "__truediv__", "__eq__",
               "__hash__"}


def test_multipoly_has_no_arithmetic():
    # the exact kernels compute on integer numerators and the parser fills
    # one term dict, so no command needs a sum, product or comparison of
    # MultiPolys; one defined here would bring ring arithmetic back into
    # src/ (the command rule above only sees whether a method is called)
    found = sorted(_ARITHMETIC & set(vars(MultiPoly)))
    assert not found, f"arithmetic or comparison on MultiPoly: {found}"


def test_every_error_is_raised():
    # an error class that src/ neither raises nor derives a raised class
    # from can never reach a caller
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                raised.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    errors = ast.parse((SRC / "errors.py").read_text())
    bases = {node.name: [b.id for b in node.bases] for node in errors.body
             if isinstance(node, ast.ClassDef)}
    live = set()
    for name in raised & set(bases):
        while name in bases:
            live.add(name)
            name = bases[name][0]
    dead = sorted(set(bases) - live)
    assert not dead, f"error classes src/trajquad never raises: {dead}"


def _optional_parameters(fn: ast.FunctionDef, is_method: bool) -> list:
    """(position or None, name) of each parameter that has a default.

    The position counts call-site positional arguments, so a method's
    self or cls is dropped; keyword-only parameters have none.
    """
    args = fn.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in fn.decorator_list)
    skip = 1 if is_method and not static else 0
    first = len(positional) - len(args.defaults)
    out = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


# (module, call name, parameter) whose default only the tests override
_SET_BY_TESTS = {
    # the console entry point reads sys.argv; tests pass an argv list
    ("cli.py", "main", "argv"),
}


def test_every_optional_parameter_is_passed():
    # a default that no src/ call overrides is a constant dressed as an
    # option.  Module-level functions and methods of src/trajquad are
    # checked (a call to a class counts for its __init__) against every
    # call in src/, matched by name; nested functions and dataclass fields
    # are not.  Calls in tests do not count, bar the entries of
    # _SET_BY_TESTS, which must each name a parameter no src/ call passes.
    sources = sorted(SRC.glob("*.py"))
    trees = [ast.parse(path.read_text(), str(path)) for path in sources]
    params = []  # (module, call name, position, parameter)
    for path, tree in zip(sources, trees):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                params += [(path.name, node.name, pos, arg) for pos, arg
                           in _optional_parameters(node, is_method=False)]
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        name = node.name if fn.name == "__init__" else fn.name
                        params += [(path.name, name, pos, arg) for pos, arg
                                   in _optional_parameters(fn, is_method=True)]
    # call name -> (most positional arguments, keywords) over all its calls;
    # a *args or **kwargs argument counts as passing everything it could
    passed = {}
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            most, keywords = passed.get(name, (0, set()))
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            most = max(most, float("inf") if starred else len(call.args))
            keywords = keywords | {k.arg for k in call.keywords}
            passed[name] = (most, keywords)
    unpassed = set()
    for module, name, pos, arg in params:
        most, keywords = passed.get(name, (0, set()))
        if arg not in keywords and None not in keywords \
                and (pos is None or most <= pos):
            unpassed.add((module, name, arg))
    extra = [f"{m}:{n}({a}=)" for m, n, a in sorted(unpassed - _SET_BY_TESTS)]
    stale = [f"{m}:{n}({a}=)" for m, n, a in sorted(_SET_BY_TESTS - unpassed)]
    assert not extra, f"optional parameters no src/ call passes: {extra}"
    assert not stale, f"allow-list entries src/ passes or lacks: {stale}"


def test_one_json_writer():
    # json.dumps(indent=...) runs the pure-Python encoder; cli._json writes
    # its bytes through the C encoder, and a second emitter could drift
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and any(k.arg == "indent" for k in node.keywords)]
    assert not found, f"calls passing indent= in src/trajquad: {found}"
