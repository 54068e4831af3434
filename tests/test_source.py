"""Guards on the library's source text."""

import ast
import dataclasses
from pathlib import Path

import proxcert
from proxcert import ApgParams


MODULES = sorted(Path(proxcert.__file__).parent.rglob("*.py"))


def _nodes(path):
    return ast.walk(ast.parse(path.read_text(), filename=str(path)))


def _is_call(node, name):
    """Whether ``node`` calls ``name``, as a plain name or an attribute."""
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def _calls(paths, name):
    """The sites, as file:line, of the calls to ``name`` in ``paths``."""
    return [
        f"{path.name}:{node.lineno}" for path in paths for node in _nodes(path) if _is_call(node, name)
    ]


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no guarantee may rest on one;
    # the library raises InvariantViolation or ValueError instead
    assert len(MODULES) >= 7
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in _nodes(path)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_one_line_search():
    # the accelerated step and the certificate step share one curvature
    # test and one backtracking loop, so a change to either reaches both
    assert len(_calls(MODULES, "accepts_curvature_bound")) == 1
    apg = [path for path in MODULES if path.name == "apg.py"]
    assert len(_calls(apg, "LineSearchFailure")) == 1


def test_one_accelerated_loop():
    # apg_run and apg_terminating run one loop, which takes every step,
    # checks every certificate and builds every trace row at one site
    apg = [path for path in MODULES if path.name == "apg.py"]
    for name in ("apg_iteration", "certified_prox_step", "TraceRow"):
        assert len(_calls(apg, name)) == 1, name


def test_a_timeout_carries_only_its_trace():
    # a SolveTimeout's best is its trace's best row, so no raise site passes one
    raises = [node for path in MODULES for node in _nodes(path) if _is_call(node, "SolveTimeout")]
    assert len(raises) >= 3
    assert [kw.arg for node in raises for kw in node.keywords] == ["trace"] * len(raises)


def test_one_multiplier_update_in_prox_al():
    # an outer step's multiplier update is formed where its stop rule accepts
    # a certificate, so the step and its KKT report use that certificate's
    outer = Path(proxcert.__file__).parent / "outer.py"
    (prox_al,) = [
        node for node in _nodes(outer) if isinstance(node, ast.FunctionDef) and node.name == "prox_al"
    ]
    assert len([node for node in ast.walk(prox_al) if _is_call(node, "multiplier")]) == 1


def test_outer_params_take_inner_defaults_from_apg_params():
    # each default of an inner setting lives in ApgParams alone: an
    # OuterParams field of the same name is written `name: type =
    # ApgParams.name`, so a default copied as a literal fails here
    outer = Path(proxcert.__file__).parent / "outer.py"
    (cls,) = [
        node for node in _nodes(outer) if isinstance(node, ast.ClassDef) and node.name == "OuterParams"
    ]
    inner = {f.name for f in dataclasses.fields(ApgParams)}
    shared = {
        node.target.id: node.value
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and node.target.id in inner and node.value is not None
    }
    assert sorted(shared) == ["M", "delta", "max_backtracks", "max_iters"]
    for name, value in shared.items():
        assert isinstance(value, ast.Attribute) and value.attr == name, name
        assert isinstance(value.value, ast.Name) and value.value.id == "ApgParams", name


def test_one_resolver_per_params_class():
    # a solve's settings are resolved from its modulus by one method per
    # params class, resolved(mu); an iteration reads the resolved gamma0
    # from its state's cap, not from params or a side argument
    package = Path(proxcert.__file__).parent
    functions = {
        node.name: node for node in _nodes(package / "apg.py") if isinstance(node, ast.FunctionDef)
    }
    assert "effective" not in functions
    for path, cls in (("apg.py", "ApgParams"), ("outer.py", "OuterParams")):
        (node,) = [
            node for node in _nodes(package / path)
            if isinstance(node, ast.ClassDef) and node.name == cls
        ]
        (method,) = [m for m in node.body if getattr(m, "name", None) == "resolved"]
        assert [arg.arg for arg in method.args.args] == ["self", "mu"], cls
    iteration = functions["apg_iteration"].args
    assert [arg.arg for arg in iteration.args] == ["problem", "state", "params"]
    assert not (iteration.kwonlyargs or iteration.vararg or iteration.kwarg)
    cli = [package / "cli.py"]
    assert _calls(cli, "effective") == _calls(cli, "unconstrained") == []


def _increments(paths, counters):
    """(file, enclosing class or None, field) of each ``+=`` on a field in ``counters``."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {
            node: cls.name
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in ast.walk(cls)
        }
        found += [
            (path.name, owner.get(node), node.target.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.AugAssign) and getattr(node.target, "attr", None) in counters
        ]
    return found


def test_one_counting_layer():
    # every solve wraps its problem with instrument_composite, whose wrappers
    # book gradients and prox calls; the subproblem oracle books only the
    # calls that wrapper cannot see
    solver = _increments(MODULES, {"grad_f_evals", "prox_evals"})
    oracle = _increments(MODULES, {"g_evals", "adjoint_evals", "cone_proj_evals"})
    assert {name for name, _, _ in solver} == {"model.py"}
    assert {(name, cls) for name, cls, _ in oracle} == {("outer.py", "SubproblemOracle")}
    assert {field for _, _, field in solver + oracle} == {
        "grad_f_evals", "prox_evals", "g_evals", "adjoint_evals", "cone_proj_evals"
    }
    assert len(solver) + len(oracle) <= 7
