import ast
from pathlib import Path

import estermann

PACKAGE = Path(estermann.__file__).parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a correctness check written as
    # one would vanish; the package raises its errors explicitly instead
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(PACKAGE.rglob("*.py"))) > 5
    assert found == []


# Every parameter with a default in the package, as (module, function,
# parameter, default source).  An option is API: adding one means adding it
# here on purpose.
LISTED_DEFAULTS = [
    ("circle", "exact_convolution_count", "mem_entries", "DEFAULT_MEM_ENTRIES"),
    ("circle", "integrate_arcs", "mode", "'exact'"),
    ("circle", "integrate_arcs", "tol", "1e-06"),
    ("circle", "integrate_arcs", "threads", "1"),
    ("circle", "integrate_arcs", "mem_entries", "DEFAULT_MEM_ENTRIES"),
    ("cli", "main", "argv", "None"),
    ("counting", "fast_count", "mem_entries", "DEFAULT_MEM_ENTRIES"),
    ("expsums", "exp_integral", "abs_tol", "None"),
    ("quadrature", "adaptive_complex", "order", "_PANEL_ORDER"),
    ("quadrature", "adaptive_complex", "band", "None"),
    ("quadrature", "panel_edges", "periods", "_PERIODS_PER_PANEL"),
    ("verify", "random_instances", "n_max", "2000"),
    ("verify", "run_verify", "quick", "False"),
]


def test_parameter_defaults_are_the_listed_ones():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            pairs += [(arg, d) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            name = getattr(node, "name", "<lambda>")
            found += [(path.stem, name, arg.arg, ast.unparse(d)) for arg, d in pairs]
    assert sorted(found) == sorted(LISTED_DEFAULTS)
