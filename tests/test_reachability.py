"""Reachability: every `src/prgd` function runs under a small CLI set, or is named in `KEPT` with its reason.

The set runs in-process through `prgd.cli.main` under `sys.setprofile`, which records the code object of
every Python call. Each function and method of the package, nested ones included, is found by walking its
modules' syntax trees and matched to a code object by its `def` line or its first decorator's line.
"""

import ast
import os
import sys
from pathlib import Path

import prgd
from prgd import cli

PACKAGE = Path(os.path.realpath(prgd.__file__)).parent

PUBLIC = "public API that no command uses"
TRACED = "used by the tests and by the bench tracer's name table, which wraps it by name"

# every function the CLI set does not reach, as module.qualname, with the reason it stays
KEPT = {
    "manifolds.Manifold.tangent": PUBLIC,
    "manifolds.Manifold.retract": PUBLIC,
    "manifolds.Manifold.retraction_adjoint": PUBLIC,
    "manifolds.same_point": PUBLIC,
    "pullback.Pullback.gradient": PUBLIC,
    "problems.save_matrix": PUBLIC,
    "manifolds.Manifold.retract_many": TRACED,
    "manifolds.Manifold.tangent_basis": TRACED,
    "problems.CostFunction.value_many": TRACED,
    "numerics.operator_norm": TRACED,
    "numerics.RngStream.uniform": TRACED,
    "pullback.Pullback.hessian_at": TRACED,
    "verify.riemannian_hessian_matrix": TRACED,
    "manifolds.Manifold.name": "names a manifold in the text of a point-mismatch error",
    "cli.console_main": "the installed console script's entry point, which calls main",
    "problems.CostFunction._value_and_gradient_array": "the cost contract: a cost without the oracle raises "
                                                      "NotImplementedError, as README documents",
}


def definitions():
    """{(file, line): module.qualname} of every function and method of the package, nested ones included,
    under its `def` line and under its first decorator's line."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    for line in {child.lineno, *(dec.lineno for dec in child.decorator_list[:1])}:
                        found[str(path), line] = name
            walk(child, path, name)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return found


def cli_set(tmp_path):
    """The 12 commands, each of which exits 0: every subcommand, both problems, prgd and rgd, a --ball small
    enough to truncate, --matrix files, and a start read from a file."""
    pca = tmp_path / "pca.txt"
    pca.write_text("4\n3 0.5 0 0\n0.5 2 0 0\n0 0 1 0.25\n0 0 0.25 0.5\n")
    saddle = tmp_path / "saddle.txt"
    saddle.write_text("3\n-1 0 0\n0 1 0.5\n0 0.5 2\n")
    start = tmp_path / "start.txt"
    start.write_text("1 0 0 0\n")
    commands = []
    for problem in ("pca", "quadratic_saddle"):
        common = ["--problem", problem]
        commands += [
            ["verify", *common, "--dim", "5", "--samples", "20"],
            ["params", *common, "--dim", "5", "--mode", "theoretical", "--ball", "1.0"],
        ]
        for algorithm in ("prgd", "rgd"):
            commands.append(["study", *common, "--dim", "6", "--chi", "4", "--trials", "3",
                             "--algorithm", algorithm, "--out", str(tmp_path / f"{problem}-{algorithm}")])
    commands += [
        ["params", "--problem", "quadratic_saddle", "--matrix", str(saddle), "--chi", "4"],
        # phases that leave a ball this small end in boundary truncations
        ["study", "--problem", "pca", "--dim", "8", "--chi", "4", "--ball", "0.05", "--trials", "2",
         "--out", str(tmp_path / "ball")],
        ["run", "--problem", "pca", "--matrix", str(pca), "--start", "file", "--start-file", str(start),
         "--chi", "4", "--terminate", "--out", str(tmp_path / "file")],
        ["run", "--problem", "pca", "--dim", "4", "--chi", "4", "--ball", "0.5", "--terminate",
         "--out", str(tmp_path / "run")],
    ]
    return commands


def test_every_function_is_reached_or_kept(tmp_path):
    commands = cli_set(tmp_path)
    # a session whose other tests already parsed would otherwise never call the parser's builders
    cli.build_parser.cache_clear()
    calls = set()

    def record(frame, event, arg):
        if event == "call":
            calls.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(previous)
    assert codes == [cli.EXIT_OK] * len(commands)

    found = definitions()
    lines = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in calls}
    reached = {found[line] for line in lines & found.keys()}
    names = set(found.values())
    unreached = sorted(names - reached - KEPT.keys())
    assert not unreached, f"reached by no command and not in KEPT: {unreached}"
    assert not KEPT.keys() & reached, f"in KEPT but reached: {sorted(KEPT.keys() & reached)}"
    assert not KEPT.keys() - names, f"in KEPT but not defined: {sorted(KEPT.keys() - names)}"
