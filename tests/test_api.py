"""The public surface: package exports and the README's library example."""

import inspect
import re
from pathlib import Path

import simplex_spectra
from simplex_spectra import cli, errors, extremal, forms, identities, jacobi, simplex

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


def test_readme_library_example_runs(capsys):
    exec(compile(_readme_example(), "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # the values the example's comments quote
    assert out[0].startswith("2.7219") and out[3].startswith("1.0826")
    assert [line.split()[0] for line in out[4:]] == ["mult", "add_h1_denominator", "h1_stability"]
