import ast
import pathlib

import numpy as np

import ellnmds
from ellnmds import code as code_mod
from ellnmds.cli import main
from ellnmds.errors import Budget
from ellnmds.gf import field_of_order

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ellnmds"


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, and the CLI reports only library
    # errors cleanly; invariants raise InvariantViolated
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert found == []


def test_no_imports_inside_functions():
    # every import sits at the top of its module, where the dependency graph
    # is visible; none of the package's imports needs deferring to break a cycle
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _calls(name):
    """(file:line, innermost enclosing function, inside a loop of that
    function) for every call of ``name`` in the library."""
    out = []

    def visit(node, path, func, in_loop):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                callee = child.func
                if getattr(callee, "id", None) == name or getattr(callee, "attr", None) == name:
                    out.append((f"{path.name}:{child.lineno}", func, in_loop))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, child.name, False)
            else:
                visit(child, path, func, in_loop or isinstance(child, _LOOPS))

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, None, False)
    return out


def test_only_the_chunk_walk_reads_the_reps_cache():
    # every scan of P^{k-1} goes through geometry.proj_chunks, which decides
    # between cache slices and generated chunks in one place
    callers = {func for _, func, _ in _calls("proj_reps_cached")}
    assert callers == {"proj_chunks"}


# wrappers the tests replace with the public call they wrapped, and references
# that live in tests/reference.py: the library defines none of them
_TEST_ONLY = {"secant_count", "incident_points", "is_arc_point", "is_identity",
              "multiplicity_sum", "undigits", "project_back", "same_code", "to_matrix_text",
              "j_invariant", "incidence", "lines_through", "map_point_to_frame",
              "max_extension_chain", "tangent_statistics", "TangentStats", "kind_of",
              "tangent_counts", "trisecant_counts"}


def test_the_library_defines_no_test_only_code():
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name in _TEST_ONLY
    ]
    assert found == []
    assert _TEST_ONLY.isdisjoint(vars(ellnmds))
    assert not hasattr(ellnmds.Budget, "check")  # folded into Budget.charge


def test_the_oracle_has_one_search():
    # the chain search is the one oracle; the flat tuple search is the tests'
    # reference (reference.h_extendable_brute_force), not a parameter
    tree = ast.parse((SRC / "code.py").read_text())
    oracle = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "h_extendability_oracle")
    args = oracle.args
    assert [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)] == [
        "code", "h", "budget"]


def test_the_oracle_charges_before_it_builds_its_columns():
    # the (N, N) indicator of added columns is built only once the chain
    # search's charge has passed
    oracle = next(node for node in ast.walk(ast.parse((SRC / "code.py").read_text()))
                  if isinstance(node, ast.FunctionDef) and node.name == "h_extendability_oracle")
    lines = {}
    for node in ast.walk(oracle):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            lines.setdefault(name, []).append(node.lineno)
    assert len(lines["charge"]) == len(lines["dot_zero_mask"]) == 1
    assert lines["charge"][0] < lines["dot_zero_mask"][0]


def test_the_oracle_command_has_no_naive_switch(capsys):
    argv = ["oracle", "--q", "5", "--curve", "0,0,0,0,1", "--k", "3", "--h", "1"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, "--naive"]) == 1
    assert "unrecognized arguments: --naive" in capsys.readouterr().err


def test_normalize_coords_is_never_called_per_point():
    # point families are normalized as arrays by normalize_points; the
    # one-row normalize_coords is for single points only
    assert _calls("normalize_coords")
    assert [where for where, _, in_loop in _calls("normalize_coords") if in_loop] == []


def test_secant_scan_has_no_library_caller():
    # every point set takes its full hyperplanes from its one kept group-law
    # walk, and an elliptic arc its profile from the group law; the
    # whole-space scan stays only as the tests' independent reference
    assert _calls("secant_scan") == []


def test_no_geometry_function_takes_full_hyperplanes():
    # the candidate filter reads the point set's kept walk itself, so no
    # caller can hand it the full hyperplanes of another set or route
    found = [
        f"{func.name}:{func.lineno}"
        for func in ast.walk(ast.parse((SRC / "geometry.py").read_text()))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "fulls" in {a.arg for a in (*func.args.posonlyargs, *func.args.args,
                                        *func.args.kwonlyargs)}
    ]
    assert found == []


def test_hyperplane_scan_is_charged_at_one_site():
    # the scan, the group-law profile and the group-law walk share one charge
    # per point set, so spend does not depend on the route
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and node.value == "hyperplane_scan"
    ]
    assert len(sites) == 1, sites


def test_no_thread_pools_in_the_library():
    # every scan runs on the calling thread; BLAS brings its own threads
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("concurrent")
        or isinstance(node, ast.Import) and any(a.name.startswith("concurrent") for a in node.names)
    ]
    assert found == []


def test_the_library_writes_one_matmul():
    # every digit product, the pencil keys included, is gf's one folded
    # product (gf._folded_product); no module keeps a kernel of its own
    def matmuls(tree):
        return [n for n in ast.walk(tree) if isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)]

    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert [name for name, tree in trees.items() for _ in matmuls(tree)] == ["gf.py"]
    assert [f.name for f in ast.walk(trees["gf.py"])
            if isinstance(f, ast.FunctionDef) and matmuls(f)] == ["_folded_product"]


def test_geometry_reduces_nothing_in_floating_point():
    # residues come from gf's tables, not from a float floor-mod
    assert [where for where, _, _ in _calls("floor") if where.startswith("geometry.py")] == []


def test_the_pencil_sieve_runs_only_inside_the_candidate_filter():
    # filter_by_fulls is the one candidate filter: every caller's candidates
    # pass its pencil sieve, then its set-point exclusion and zero tests
    assert [(func, in_loop) for _, func, in_loop in _calls("_pencil_sieve")] == [
        ("filter_by_fulls", False)]


_ORBIT_FILTER = {"negation_odd", "negated_encs", "_negation_group", "_orbit_index",
                 "_ORBIT_CACHE"}


def test_geometry_filters_every_set_on_one_path():
    # a set that does not project filters every point of P^(k-1): geometry
    # keeps no negation sign pattern, orbit index or orbit cache, proj_chunks
    # takes no sign pattern, and psi serves the embedding alone
    tree = ast.parse((SRC / "geometry.py").read_text())
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert defined.isdisjoint(_ORBIT_FILTER)
    chunks = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "proj_chunks")
    args = chunks.args
    assert [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)] == [
        "field", "k", "rows"]
    assert args.vararg is None and args.kwarg is None
    assert {func for _, func, _ in _calls("psi")} == {"phi_k"}


def _methods(path, cls):
    tree = ast.parse(path.read_text())
    node = next(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == cls)
    return {f.name: f for f in node.body if isinstance(f, ast.FunctionDef)}


# second routes to a quantity the library computes one way
_SECOND_ROUTES = {"_tonelli_shanks", "_digits_int", "dual_min_distance_from_distribution"}


def test_no_second_route_to_a_root_a_digit_or_a_dual_distance():
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in _SECOND_ROUTES
    ]
    assert found == []
    assert "digits" not in _methods(SRC / "gf.py", "Field")  # digits_np is the one expansion


def test_square_roots_and_residues_read_the_one_table():
    field = _methods(SRC / "gf.py", "Field")
    for name in ("sqrt", "is_square"):
        reads = {n.attr for n in ast.walk(field[name]) if isinstance(n, ast.Attribute)}
        assert "sqrt_table_np" in reads, name


def test_dual_distance_runs_no_subset_search():
    # every code's dual distance is the MacWilliams transform of its weights
    assert [where for where, _, _ in _calls("combinations") if where.startswith("code.py")] == []


def test_point_sets_name_their_parent_not_an_arc():
    # an extended set reads its parent's walk; whether a set is an arc is its
    # class, not an attribute
    for cls in ("ProjPointSet", "EllipticArc"):
        tree = next(node for node in ast.walk(ast.parse((SRC / "geometry.py").read_text()))
                    if isinstance(node, ast.ClassDef) and node.name == cls)
        names = {t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 if isinstance(t, ast.Name)}
        names |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
        names |= {a.arg for node in tree.body if isinstance(node, ast.FunctionDef)
                  for a in node.args.args}
        assert "arc" not in names, cls
        assert "arc" not in _methods(SRC / "geometry.py", cls)


def test_the_codeword_enumeration_runs_no_zero_test():
    # codewords are counted by the roots of their last coordinate; the zero
    # test over all of P^(m-1) is the tests' reference
    # (reference.codeword_weights_by_zero_test)
    assert [where for where, _, _ in _calls("dot_zero_mask_digits")
            if where.startswith("code.py")] == []


def test_the_codeword_enumeration_walks_one_dimension_down(monkeypatch):
    # _codeword_weights walks P^(m-2), m = rows, never P^(m-1)
    seen, walk = [], code_mod.proj_chunks

    def recording(field, k, *args, **kwargs):
        seen.append(k)
        return walk(field, k, *args, **kwargs)

    monkeypatch.setattr(code_mod, "proj_chunks", recording)
    field = field_of_order(7)
    for m in (2, 4, 5):
        seen.clear()
        rows = np.random.default_rng(m).integers(1, 7, size=(m, 6)).tolist()
        code_mod._codeword_weights(code_mod.LinearCode(field, rows), Budget(None))
        assert seen == [m - 1]


def test_line_systems_build_trisecant_tables_on_first_read():
    # min_trisecants and line_profile read neither table; the frame search
    # and the witness batch build them when they first read them
    init = _methods(SRC / "secants.py", "LineSystem")["__init__"]
    stored = {node.attr for node in ast.walk(init)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    assert stored.isdisjoint({"tri", "dual_enc"})
