"""Guards on the library's source text, and the premises they rest on."""

import ast
import dataclasses
import inspect
from pathlib import Path

import numpy as np

import proxcert
from proxcert import ApgParams, SubproblemOracle, certified_prox_step, trial_step


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


def test_library_multiplies_through_ndarray_dot():
    # ``@`` and np.matmul go through the matmul gufunc machinery, whose
    # dispatch cost about twice that of ndarray.dot on the short vectors of a
    # small solve; the library calls a.dot(b), with the operands in the same
    # order, wherever it means a @ b
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in _nodes(path)
        if isinstance(node, ast.MatMult) or _is_call(node, "matmul")
    ]
    assert found == []


# (m, n) of the operands below: empty, tiny, the sizes of a small constrained
# solve, and the 500 x 2000 matrix of a large quartic
PRODUCT_SHAPES = ((0, 0), (0, 4), (3, 0), (1, 1), (1, 7), (8, 12), (12, 8), (37, 301), (500, 2000))


def test_dot_gives_the_bits_of_matmul():
    # the premise of the guard above: for the float64 operand shapes the
    # library multiplies, ndarray.dot returns the bytes a @ b returns, so the
    # swap moved no iterate.  A NumPy or BLAS change that breaks it fails
    # here, by name, before it fails a pinned count
    rng = np.random.default_rng(31)
    for m, n in PRODUCT_SHAPES:
        for _ in range(3):
            # entries over 16 decades, so that a change of summation order shows
            A = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-8, 8, (m, n))
            x, y = (rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n) for _ in range(2))
            v = rng.standard_normal(m)
            products = {
                "1-D . 1-D": (x, y),
                "1-D . itself": (x, x),
                "2-D . 1-D": (A, x),
                "A.T . 1-D": (A.T, v),
            }
            for name, (a, b) in products.items():
                assert a.dot(b).tobytes() == (a @ b).tobytes(), f"{name} at m = {m}, n = {n}"


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


def _parameters(function):
    return list(inspect.signature(function).parameters)


def test_a_trial_reads_its_iterates_from_one_state():
    # x, z, the step scalars and the images all come from one ApgState
    assert _parameters(trial_step) == ["problem", "state", "gamma"]


def test_the_certificate_step_reads_its_search_from_apg_params():
    # delta and max_backtracks have one default and one check, ApgParams's
    assert _parameters(certified_prox_step) == ["problem", "v", "gamma_start", "params"]


def test_the_subproblem_oracle_takes_its_conic_whole():
    # constraint, cone and smooth term come from one ConicProblem, whose
    # cone decides the proximal-point case
    parameters = _parameters(SubproblemOracle.__init__)
    assert "conic" in parameters
    assert not {"constraint", "cone", "smooth"} & set(parameters)


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
    # book gradients, prox calls and f values; the subproblem oracle books
    # only the calls that wrapper cannot see
    solver = _increments(MODULES, {"grad_f_evals", "prox_evals", "f_evals"})
    oracle = _increments(MODULES, {"g_evals", "adjoint_evals", "cone_proj_evals"})
    assert {name for name, _, _ in solver} == {"model.py"}
    assert {(name, cls) for name, cls, _ in oracle} == {("outer.py", "SubproblemOracle")}
    assert {field for _, _, field in solver + oracle} == {
        "grad_f_evals", "prox_evals", "f_evals", "g_evals", "adjoint_evals", "cone_proj_evals"
    }
    # two f-value sites: value and value_at
    assert len(solver) + len(oracle) <= 9


def test_cli_maps_each_failure_to_its_exit_code_in_main():
    # one try in main turns a failure into its message and exit code, so a
    # new subcommand or named error adds no handler of its own; sweep keeps
    # only its per-target catch, whose line precedes the abort line and
    # after which the partial table is still written
    cli = Path(proxcert.__file__).parent / "cli.py"
    handlers = [
        (func.name, ast.unparse(node.type), any(isinstance(n, ast.Return) for n in ast.walk(node)))
        for func in ast.parse(cli.read_text()).body if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func) if isinstance(node, ast.ExceptHandler)
    ]
    errors = [h for h in handlers if h[1] == "(SpecError, ValueError, OSError)"]
    assert errors == [("main", "(SpecError, ValueError, OSError)", True)]
    failures = [h for h in handlers if h[1] == "LineSearchFailure"]
    assert failures == [("sweep", "LineSearchFailure", False), ("main", "LineSearchFailure", True)]
    assert {name for name, _, returns in handlers if returns} == {"main"}


def test_cli_writes_every_csv_through_one_writer():
    cli = Path(proxcert.__file__).parent / "cli.py"
    assert len(_calls([cli], "writer")) == 1
