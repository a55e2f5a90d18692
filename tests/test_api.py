"""The public surface: package exports and the README's library example."""

import re
from pathlib import Path

import simplex_spectra
from simplex_spectra import errors, extremal, forms, identities, jacobi, simplex


def test_module_exports_are_package_names():
    # every exported name exists and is the package's own object, so an
    # export left behind by a removal fails here
    for module in (errors, extremal, forms, identities, jacobi, simplex):
        for name in module.__all__:
            assert getattr(simplex_spectra, name) is getattr(module, name), (module.__name__, name)


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # the values the example's comments quote
    assert out[0].startswith("2.7219") and out[3].startswith("1.0826")
    assert [line.split()[0] for line in out[4:]] == ["mult", "add_h1_denominator", "h1_stability"]
