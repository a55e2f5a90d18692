"""The public surface: package exports and the README's library example."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import simplex_spectra
from simplex_spectra import cli, errors, extremal, forms, identities, jacobi, simplex
from simplex_spectra import (
    ParameterError,
    analyze,
    boundary_trace_parseval,
    enumerate_basis,
    h1_form,
    mass_form,
    row_constants,
    trace_form,
)

_MODULES = (errors, extremal, forms, identities, jacobi, simplex)


def _readme_example():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_module_exports_are_package_names():
    # every exported name exists and is the package's own object, so an
    # export left behind by a removal fails here
    for module in _MODULES:
        for name in module.__all__:
            assert getattr(simplex_spectra, name) is getattr(module, name), (module.__name__, name)
    # and the package exports nothing else, so a removed name cannot linger
    # in __init__ alone
    public = {name for name, value in vars(simplex_spectra).items() if not name.startswith("_")}
    modules = {name for name in public if inspect.ismodule(getattr(simplex_spectra, name))}
    assert public - modules == {name for module in _MODULES for name in module.__all__}


def test_every_export_is_used_by_the_package():
    # an exported function is called somewhere in the package, its own
    # module included, or by the README's library example; the rest of the
    # exports are types of the values those calls take and return. An
    # oracle that only the tests call belongs to tests/oracles.py
    sources = "\n".join(inspect.getsource(m) for m in (cli, *_MODULES))
    example = _readme_example()
    for module in _MODULES:
        for name in module.__all__:
            if isinstance(getattr(module, name), type):
                continue
            calls = len(re.findall(rf"\b{name}\(", sources)) - len(re.findall(rf"\bdef {name}\(", sources))
            assert calls > 0 or f"{name}(" in example, (module.__name__, name)


def test_import_loads_no_heavy_scipy_subpackage():
    # importing the package loads scipy.linalg alone of scipy's
    # subpackages; any of these would add a large share of its import time
    path = os.pathsep.join([str(Path(simplex_spectra.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    probe = "import sys, simplex_spectra; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True
    ).stdout.split()
    assert "simplex_spectra" in out
    for heavy in ("scipy.optimize", "scipy.special", "scipy.sparse", "scipy.integrate"):
        assert heavy not in out, heavy


def test_readme_library_example_runs(capsys):
    exec(compile(_readme_example(), "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # the values the example's comments quote
    assert out[0].startswith("2.7219") and out[3].startswith("1.0826")
    assert [line.split()[0] for line in out[4:]] == ["mult", "add_h1_denominator", "h1_stability"]


def _affine(x):
    return 1.0 + x[:, 0]


@pytest.mark.parametrize(
    "call",
    [
        lambda dim: list(row_constants(2, dim)),
        lambda dim: h1_form(4, dim),
        lambda dim: mass_form(4, dim),
        lambda dim: trace_form(2, dim),
        lambda dim: enumerate_basis(2, dim),
        lambda dim: analyze(_affine, 2, dim),
        lambda dim: boundary_trace_parseval(_affine, dim, 2),
    ],
    ids=["row_constants", "h1_form", "mass_form", "trace_form", "enumerate_basis", "analyze", "boundary_trace_parseval"],
)
def test_a_dim_that_is_not_an_integer_is_a_parameter_error(call):
    # 2.0 and True pass a membership test in (1, 2), and numpy would take
    # them on to a TypeError; a numpy integer is an integer
    for dim in (2.0, True):
        with pytest.raises(ParameterError, match="dim must"):
            call(dim)
    call(np.int64(2))
