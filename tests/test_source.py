"""Properties of the library source itself."""

import ast
import importlib.util
import symtable
from collections import Counter
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "hybridsets").glob("*.py"))


def test_library_has_no_assert_statements():
    # ``python -O`` strips asserts, so a check written as one silently vanishes.
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_scalarexpr_is_the_only_module_that_imports_re():
    # One scanner: every text the library reads goes through scalarexpr.Cursor.
    importers = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(a.name == "re" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "re"
    ]
    assert importers == ["scalarexpr.py"]


def test_regions_line_is_the_only_caller_of_bisect():
    # One placement routine: a point is placed among sorted endpoints by
    # regions._Line alone, for intervals, grid rows and grid columns alike.
    def callers(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and where.count(".") < 1:
                inner = f"{where}.{child.name}"
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name.startswith("bisect"):
                    yield where
            yield from callers(child, inner)

    found = {
        where
        for path in SOURCES
        for where in callers(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    }
    assert found == {"regions._Line"}


def test_checked_int_is_called_only_where_a_value_is_stored_or_returned():
    # One overflow rule: sums are taken in Python ints, whatever the order
    # of their pairs, and checked_int checks each value once, where it is
    # stored or returned: a coefficient merge keeps, a multiplicity given to
    # HybridSet, a coefficient given to a combination, a net multiplicity,
    # and a region's multiplicity at a point.
    # So a check on a partial sum, which makes the result depend on the
    # order of the sum, cannot come back unseen.  A call is named by its
    # module, class and function; nested functions count as their host.
    def callers(node, where, in_def=False):
        for child in ast.iter_child_nodes(node):
            inner, inner_def = where, in_def
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and not in_def:
                inner, inner_def = f"{where}.{child.name}", isinstance(child, ast.FunctionDef)
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name == "checked_int":
                    yield where
            yield from callers(child, inner, inner_def)

    found = {
        where
        for path in SOURCES
        for where in callers(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    }
    assert found == {
        "hybridset.merge",
        "hybridset.HybridSet.__init__",
        "hybridset.FreeCombination._checked",
        "functions._accumulate",
        "regions.SymbolicHybridSet.multiplicity",
        "regions._Layout.multiplicities",
    }


def test_every_imported_name_is_read_in_its_module():
    # An import that nothing reads is code the module does not use.  The
    # only exceptions are names the benchmark harness rebinds in the module
    # by name: perfbench/tracer.py patches ``evaluate`` in calculus and in
    # matrices so that a traced run counts every call, wherever it is made.
    kept = {
        ("calculus", "evaluate"): "perfbench/tracer.py rebinds it in this module",
        ("matrices", "evaluate"): "perfbench/tracer.py rebinds it in this module",
        ("cli", "matrix_add_with_refinement"): "perfbench/tracer.py rebinds it in this module",
    }
    unread = set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread.update((path.stem, name) for name in imported if name not in read)
    assert unread == set(kept)


def test_text_is_read_only_where_the_program_reads_it():
    # Every input surface is one the program reads: a workspace line, an
    # inline expression or term, a command-line argument or valuation, and
    # two one-line entries over the readers a workspace uses.  So a
    # scalarexpr.Cursor is made only there, and a text format that nothing
    # reads cannot come back unseen.  A call is named by its module, class
    # and function; nested functions count as their host.
    def makers(node, where, in_def=False):
        for child in ast.iter_child_nodes(node):
            inner, inner_def = where, in_def
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and not in_def:
                inner, inner_def = f"{where}.{child.name}", isinstance(child, ast.FunctionDef)
            if isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")) == "Cursor":
                    yield where
            yield from makers(child, inner, inner_def)

    found = {
        where
        for path in SOURCES
        for where in makers(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    }
    assert found == {
        "workspace.parse_workspace",
        "workspace.parse_expr_text",
        "workspace.parse_term_text",
        "cli._reading",
        "cli._valuation",
        "regions.Valuation.parse",
        "scalarexpr.parse_scalar",
    }


def test_tables_are_evaluated_by_blocks_in_one_place():
    # One table evaluator: IndicatorTable.grid_keys keys a grid by row and
    # column classes and only functions.evaluate_grid reads it, and the CLI
    # evaluates a table through evaluate_grid alone, with no evaluation in a
    # loop of its own, so a second per-cell path cannot come back beside the
    # block one.  A call is named by its module, class and function; nested
    # functions count as their host.
    evaluators = {
        "grid_keys", "evaluate_grid", "evaluate_many", "evaluate", "eval_expr", "_outcomes",
        "multiplicities_many", "multiplicity", "indicator",
    }

    def calls(node, where, in_def=False, in_loop=False):
        for child in ast.iter_child_nodes(node):
            inner, inner_def = where, in_def
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and not in_def:
                inner, inner_def = f"{where}.{child.name}", isinstance(child, ast.FunctionDef)
            loop = in_loop or isinstance(
                child, (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            )
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name in evaluators:
                    yield where, name, in_loop
            yield from calls(child, inner, inner_def, loop)

    found = {
        call
        for path in SOURCES
        for call in calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    }
    assert {where for where, name, _ in found if name == "grid_keys"} == {
        "functions.evaluate_grid"
    }
    assert {call for call in found if call[0].startswith("cli.")} == {
        ("cli._cmd_eval", "eval_expr", False),
        ("cli._cmd_matrix_add", "eval_expr", False),  # the one --cell
        ("cli._cmd_matrix_add", "evaluate_grid", False),
    }


def test_outcomes_are_made_and_finished_in_one_loop():
    # One outcome path: an indicator vector's entry is made (a sweep's find
    # or _accumulate) and finished (_eval_plain or _eval_marked) only in
    # functions._outcomes, the loop behind evaluate, evaluate_many and
    # evaluate_grid, so a second outcome loop cannot come back beside it.
    # A use is named by its module, class and function; nested functions
    # count as their host.
    names = {"_eval_plain", "_eval_marked", "_accumulate"}

    def uses(node, where, in_def=False):
        for child in ast.iter_child_nodes(node):
            inner, inner_def = where, in_def
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and not in_def:
                inner, inner_def = f"{where}.{child.name}", isinstance(child, ast.FunctionDef)
            if isinstance(child, ast.Name) and child.id in names:
                yield where, child.id
            if isinstance(child, ast.Call) and getattr(child.func, "attr", "") == "find":
                yield where, "find"
            yield from uses(child, inner, inner_def)

    found = {
        use
        for path in SOURCES
        for use in uses(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    }
    assert found == {("functions._outcomes", name) for name in names | {"find"}}


def test_every_exported_name_is_used_or_kept_for_a_reason():
    # Code the library does not call is put to use or deleted: each name the
    # package exports is read by library code (the CLI included) or by the
    # benchmark harness, or it is kept below with its reason.  Library code
    # reads a name where symtable shows a module-level or global reference
    # to it, outside the name's own definition, so a local or an attribute
    # of the same name is not a use; an attribute read on a package module
    # (scalarexpr.parse_scalar) is.  The harness also reads a name by a
    # ``from hybridsets... import`` and by a string, in which its tracer
    # names what it rebinds.  The package's __init__ is its one export list.
    kept = {
        "verify_rewrite": "the check of a combine over every ordering is to run it",
        "is_strict": "the check of a combine over every ordering is to run it",
        "hybrid_graph": "acceptance criterion 2, the join laws on graphs",
        "graph_function": "acceptance criterion 2, the join laws on graphs",
        "atom": "a public constructor: the tests build their inputs with it",
        "word": "a public constructor: the tests build their inputs with it",
        "constant_atom": "a public constructor: the README library example builds its atoms with it",
    }
    package = SOURCES[0].parent
    modules = {path.stem for path in SOURCES}
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    bench = sorted((package.parent.parent / "perfbench").glob("*.py"))

    def global_reads(table, skip):
        for symbol in table.get_symbols():
            if symbol.is_referenced() and (table.get_type() == "module" or symbol.is_global()):
                yield symbol.get_name()
        for child in table.get_children():
            if child.get_name() != skip:
                yield from global_reads(child, skip)

    def module_reads(tree, harness):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    yield node.attr
            elif harness and isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value
            elif harness and isinstance(node, ast.ImportFrom) and (
                node.module or ""
            ).startswith("hybridsets"):
                yield from (alias.name for alias in node.names)

    texts = [(path, path.read_text(encoding="utf-8")) for path in SOURCES if path.name != "__init__.py"]
    tables = [symtable.symtable(text, str(path), "exec") for path, text in texts]
    read = {
        name
        for path, text in [*texts, *((path, path.read_text(encoding="utf-8")) for path in bench)]
        for name in module_reads(ast.parse(text), path in bench)
    }
    unused = {
        name
        for name in exported
        if name not in read and not any(name in global_reads(table, name) for table in tables)
    }
    assert unused == set(kept)
    export_lists = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id == "__all__"
    ]
    assert set(export_lists) <= {"__init__.py"}


def test_every_public_method_is_used_or_kept_for_a_reason():
    # The export guard above, one level down: each public method and other
    # public class-body name of the package's classes is read as an
    # attribute by library code (the CLI included) or by the benchmark
    # harness, whose tracer names what it rebinds in strings, or it is kept
    # below with a reason that names a paper criterion or a ROADMAP item.
    # A read inside the name's own definition does not count, nor does a
    # local variable of the same name.  Dataclass fields are data, not
    # methods, and oracle.py, the tests' independent reference, is neither
    # checked nor counted as a reader.
    kept = {
        "HybridSet.is_disjoint": "acceptance criterion 2, the join laws on graphs",
        "Valuation.parse": "item 5's input surface: the reader the README library example uses",
        "ChoiceMatrix.inverse": "criterion 3, the canonical matrix inverses; item 9 stage 1 moves its test here",
        "Refinement.rewrite": "item 4: one original piece over the new ones, as verify_rewrite checks it",
        "FreeCombination.coefficient": "item 6: --explain prints term multiplicities and exponents by name",
    }
    package = SOURCES[0].parent
    bench = sorted((package.parent.parent / "perfbench").glob("*.py"))

    def members(cls):
        fields = any(ast.unparse(d).startswith("dataclass") for d in cls.decorator_list)
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                yield node.name, node
            elif isinstance(node, ast.Assign):
                yield from ((t.id, node) for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and not fields:
                yield node.target.id, node

    def reads(tree, strings):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield node.attr
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value

    readers = [
        (ast.parse(path.read_text(encoding="utf-8")), path in bench)
        for path in [*SOURCES, *bench]
        if path.name not in ("__init__.py", "oracle.py")
    ]
    total = Counter(name for tree, strings in readers for name in reads(tree, strings))
    unused = {
        f"{cls.name}.{name}"
        for tree, in_bench in readers
        if not in_bench
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for name, node in members(cls)
        if not name.startswith("_") and total[name] == Counter(reads(node, False))[name]
    }
    assert unused == set(kept)


def test_the_library_keeps_no_caught_exception():
    # A caught exception holds its traceback, and each raise of that same
    # object makes the traceback longer: a handler that keeps it, in a store
    # or in another object, lets an error grow with the points that raised
    # it.  So a handler reads the name it binds only to raise, in an
    # f-string, or in str(name).
    def stray(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Raise, ast.JoinedStr)):
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "str"
                and all(isinstance(a, ast.Name) for a in child.args)
            ):
                continue
            if isinstance(child, ast.Name) and child.id == name:
                yield child.lineno
            yield from stray(child, name)

    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ExceptHandler) and node.name
        for statement in node.body
        for line in stray(ast.Module([statement], []), node.name)
    ]
    assert found == []


def test_refine_holds_one_elimination():
    # One exact elimination routine: only determinant_and_adjugate does row
    # arithmetic with //, and the two older entry points only delegate to it,
    # so a dense twin of the sparse elimination cannot come back unseen.
    tree = ast.parse(next(p for p in SOURCES if p.name == "refine.py").read_text(encoding="utf-8"))
    owners = {
        top.name
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        for node in ast.walk(top)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.FloorDiv)
    }
    assert owners == {"determinant_and_adjugate"}
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("bareiss_determinant", "exact_integer_inverse"):
        calls = [
            node.func.id
            for node in ast.walk(functions[name])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        ]
        loops = [node for node in ast.walk(functions[name]) if isinstance(node, (ast.For, ast.While))]
        assert "determinant_and_adjugate" in calls and loops == [], name
    # A choice matrix's entries are read in one place: made into runs of
    # plain ints when the matrix is made, and by the elimination for bare
    # rows.
    scopes = dict(functions)
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            methods = (node for node in top.body if isinstance(node, ast.FunctionDef))
            scopes.update((f"{top.name}.{node.name}", node) for node in methods)

    def users(name):
        return {
            scope
            for scope, node in scopes.items()
            if any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(node))
        }

    assert users("_integer_entry") == {"_read_runs"}
    assert users("_read_runs") == {"ChoiceMatrix.__init__", "determinant_and_adjugate"}


def test_the_combine_reads_runs_and_one_dropped_row_rule():
    # One combine routine: pointwise_star reads an explicit refinement's
    # choice matrix as runs, never its dense rewrite rows or entries, and
    # the dropped piece's rewrite row, 1 minus the kept rows' column sums,
    # is worked out in one place in refine.py, which the combine and
    # Refinement.coefficients call, so a second copy of the rule cannot
    # come back unseen.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    scopes = {}
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                scopes[f"{module}.{top.name}"] = top
            elif isinstance(top, ast.ClassDef):
                methods = (node for node in top.body if isinstance(node, ast.FunctionDef))
                scopes.update((f"{module}.{top.name}.{node.name}", node) for node in methods)
    star = scopes["calculus.pointwise_star"]
    read = {node.attr for node in ast.walk(star) if isinstance(node, ast.Attribute)}
    assert read & {"coefficients", "entries"} == set()

    def one_minus_a_sum(node):
        return (
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.Constant) and node.left.value == 1
            and isinstance(node.right, ast.Call) and getattr(node.right.func, "id", "") == "sum"
        )

    owners = {scope for scope, node in scopes.items() if any(map(one_minus_a_sum, ast.walk(node)))}
    assert owners == {"refine.rewrite_columns"}
    callers = {
        scope
        for scope, node in scopes.items()
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "rewrite_columns"
    }
    assert callers == {"refine.Refinement.coefficients", "calculus.pointwise_star"}


def test_the_canonical_refinement_is_built_in_refine_alone():
    # One canonical refinement: where the compact form declines a closed
    # form, pointwise_star has refine.common_strict_refinement build it and
    # builds no region, P label or unit row of its own, so a second copy of
    # the ones-top-row pieces cannot come back unseen.  In calculus only the
    # compact form cuts P1 from the universe, step by step.
    tree = ast.parse(next(p for p in SOURCES if p.name == "calculus.py").read_text(encoding="utf-8"))
    scopes = {}
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            scopes[top.name] = top
        elif isinstance(top, ast.ClassDef):
            methods = (node for node in top.body if isinstance(node, ast.FunctionDef))
            scopes.update((f"{top.name}.{node.name}", node) for node in methods)

    def region_reads(node):
        return {
            n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and getattr(n.value, "id", "") == "SymbolicHybridSet"
        }

    star = scopes["pointwise_star"]
    texts = [n.value for n in ast.walk(star) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    formatted = [
        n.values[i].value
        for n in ast.walk(star) if isinstance(n, ast.JoinedStr)
        for i in range(len(n.values) - 1)
        if isinstance(n.values[i], ast.Constant) and isinstance(n.values[i + 1], ast.FormattedValue)
    ]
    calls = {n.func.id for n in ast.walk(star) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert region_reads(star) == set()
    assert not any("P{" in t for t in texts) and not any(t.endswith("P") for t in formatted)
    assert "common_strict_refinement" in calls
    assert {scope for scope, node in scopes.items() if region_reads(node)} == {"_Compact.__init__", "_Compact.extend"}


def test_every_name_the_benchmark_tracer_rebinds_exists():
    # perfbench/tracer.py rebinds library names during a traced run and needs
    # each one in its owner's own namespace; loading the module only reads
    # its tables, it installs nothing.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    places = [p for _, ps in {**tracer.SPANS, **tracer.COUNTERS}.values() for p in ps]
    places.append((tracer.regions.RegionAtom, "indicator"))
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in places
        if attr not in vars(owner)
    ]
    assert missing == []


def test_combinations_share_one_merge(monkeypatch):
    # One merge loop, clash check and equality for every integer combination
    # of named atoms: a subclass that defines its own would start a second.
    from fractions import Fraction

    from hybridsets import hybridset
    from hybridsets.functions import FreeWord, constant_atom
    from hybridsets.hybridset import FreeCombination
    from hybridsets.regions import Interval1D, RegionAtom, SymbolicHybridSet

    for cls in (SymbolicHybridSet, FreeWord):
        assert cls.__bases__ == (FreeCombination,)
        own = {"__init__", "__eq__", "__hash__", "combine"} & set(vars(cls))
        assert own == set(), cls.__name__

    # A seeded combine goes through that same loop, once, like an unseeded
    # one and the checked-input constructor: the seed is not a second path.
    seeds = []
    real = hybridset.merge
    monkeypatch.setattr(
        hybridset, "merge", lambda groups, clash, seed=None: seeds.append(seed)
        or real(groups, clash, seed),
    )
    for cls, atom in (
        (SymbolicHybridSet, RegionAtom("A", Interval1D(Fraction(0), Fraction(1)))),
        (FreeWord, constant_atom("f", 2)),
    ):
        x = cls.from_atom(atom)
        for build, seed in (
            (lambda: cls.combine([(x, 1), (x, 2)]), x),
            (lambda: cls.combine([(x, 2), (x, 1)]), None),
            (lambda: cls._from_checked([([(atom.name, 1, atom)], 1)]), None),
        ):
            seeds.clear()
            build()
            assert len(seeds) == 1 and seeds[0] is seed, cls.__name__


def test_names_are_bound_in_hybridset_alone():
    # One name-binding rule: a name is bound to the first atom that names it
    # and an unequal later one is a clash, by hybridset.bind, per entry in
    # merge and per combination in bind_all, which the evaluation plan and
    # the compact fold call.  No other module scans a combination's atoms
    # itself, so a second copy of the clash test cannot come back unseen.
    # A call is named by its module, class and function.
    def calls(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and where.count(".") < 2:
                inner = f"{where}.{child.name}"
            if isinstance(child, ast.Call):
                func = child.func
                yield where, func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if isinstance(func, ast.Attribute) and func.attr == "items":
                    if getattr(func.value, "attr", "") == "_atoms":
                        yield where, "_atoms.items"
            yield from calls(child, inner)

    found = [
        pair
        for path in SOURCES
        for pair in calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]

    def callers(name):
        return {where for where, called in found if called == name}

    assert callers("bind") == {"hybridset.bind_all", "hybridset.merge"}
    assert callers("bind_all") == {"functions._Plan.__init__", "calculus._Compact.extend"}
    assert {where.split(".")[0] for where in callers("_atoms.items")} == {"hybridset"}
