"""The public API is pinned: a name joins or leaves it only on purpose.

Test-only routes (the undivided numerator Q, the raw-key recursion, the
direct multinomial product) and test-only helpers (homogeneous slices,
re-expressing a SymPoly over other symbols) live in tests/oracles.py, not
in the package.
README's library and command-line examples run as written, every name a
package module imports is used there or exported, FormTable.add is the
one place the package renders a form id, and importing the command line
loads neither dataclasses nor inspect.
"""

import ast
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import dtmoments
from dtmoments import cli, fps, genfun, moments, ratfun

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

PUBLIC = {
    "DistinctnessViolation",
    "ExactDivisionError",
    "FormTable",
    "MomentEngine",
    "QSeries",
    "RationalExpr",
    "RationalTerm",
    "RegistryMismatch",
    "Series",
    "SymPoly",
    "VariableRegistry",
    "canonical_key",
    "check_conjecture",
    "check_n3_identity",
    "e_inverse",
    "e_transform",
    "f_rational",
    "f_series",
    "form_id",
    "g_diagonal",
    "geometric",
    "h_diagonal",
    "identity_form",
    "moment",
    "multinomial",
    "n_value",
    "nom",
    "odot_closed",
    "odot_many",
    "p_polynomial",
    "parse_key",
    "permutation_form",
    "validate_key",
}

TEST_ONLY = (
    "q_polynomial",
    "odot_many_direct",
    "recursion_residual",
    "build_genfun",
    "GenFunResult",
    "expand_to_series",
    "qseries_mul",
    "odot",
    "homogeneous_part",
    "f_series_by_geometric",
    "expand_by_geometric",
    "p_by_window",
    "_swapped",
    "_div_linear",
    "closed_form_at_equal_pairs",
    "series_at_equal_pairs",
    "split_factors",
    "_split_factors",
    "contract_by_steps",
    "n_value_by_steps",
    "items_by_key",
    "series_text_by_items",
    "qseries_text_by_items",
    "poly_pretty_by_items",
)


def test_package_exports_exactly_the_public_names():
    assert len(PUBLIC) == 33
    assert len(dtmoments.__all__) == len(set(dtmoments.__all__))
    assert set(dtmoments.__all__) == PUBLIC | {"__version__"}


def test_every_listed_name_resolves():
    for name in dtmoments.__all__:
        assert hasattr(dtmoments, name), name
    for module in (moments, genfun):
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)


def test_test_only_routes_stay_out_of_the_package():
    for name in TEST_ONLY:
        for module in (dtmoments, fps, moments, ratfun, genfun):
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(ratfun.SymPoly, "times_monomial")
    assert not hasattr(ratfun.SymPoly, "restricted")
    assert not hasattr(ratfun.SymPoly, "substitute_series")
    assert not hasattr(ratfun.SymPoly, "with_symbols")
    assert not hasattr(fps.Series, "homogeneous_part")
    assert not hasattr(fps.Series, "max_part_index")
    # the renderers order keys, not items, and Series renders in chunks
    assert not hasattr(fps, "_in_order")
    assert not hasattr(fps.Series, "_term_lines")
    # forms enter a table only through FormTable.add and move by key
    assert not hasattr(ratfun.FormTable, "get")
    assert not hasattr(ratfun.FormTable, "_add_keyed")
    assert not hasattr(genfun, "DiagonalSeries")
    # the engine always canonicalizes and keeps its memo; raw keys are the
    # oracle's job
    assert list(inspect.signature(moments.MomentEngine).parameters) == []
    # outside keys pass one door, which does its own lookup
    assert not hasattr(moments.MomentEngine, "_lookup")


def test_readme_library_block_runs_as_written():
    readme = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_command_block_runs_as_written(tmp_path, monkeypatch, capsys):
    readme = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.S | re.M)
    blocks = [b for b in blocks if re.search(r"^dtmoments ", b, re.M)]
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)  # `> f1.series` writes here
    out = None
    ran = checked = 0
    for line in blocks[0].splitlines():
        if line.startswith("dtmoments "):
            argv = shlex.split(line)[1:]
            target = None
            if ">" in argv:
                i = argv.index(">")
                argv, target = argv[:i], argv[i + 1]
            assert cli.main(argv) == 0, line
            out = capsys.readouterr().out
            if target is not None:
                Path(target).write_text(out, encoding="ascii")
            ran += 1
        elif line.startswith("# -> "):
            assert out == line[len("# -> ") :] + "\n", line
            checked += 1
    assert ran >= 10 and checked >= 2


def _imports_and_exports(tree: ast.Module):
    bound = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return bound, exported


def test_every_imported_name_is_used_or_exported():
    package = Path(dtmoments.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound, exported = _imports_and_exports(tree)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in bound.items()
            if name not in used and name not in exported
        ]
    assert unused == []


def test_form_ids_are_rendered_only_in_form_table_add():
    package = Path(dtmoments.__file__).resolve().parent
    calls = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "form_id":
                calls.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), (path.name,))
    assert [scope for scope, _ in calls] == [("ratfun.py", "FormTable", "add")], calls


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # pytest itself loads both, so only a fresh interpreter can tell
    code = (
        "import sys, dtmoments.cli; "
        "print(*[m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == []
