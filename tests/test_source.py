"""Properties of the library source itself."""

import ast
import importlib.util
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
