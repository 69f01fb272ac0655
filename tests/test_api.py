"""Every name a module exports through __all__ must exist in it."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import pairemit

MODULES = ["pairemit"] + sorted(f"pairemit.{m.name}"
                                for m in pkgutil.iter_modules(pairemit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_package_version_is_read_from_the_module():
    # pyproject.toml declares the version dynamic and takes it from
    # pairemit.__version__, so a version bump edits one file
    pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    raw = pyproject.read_configuration(path, expand=False)["project"]
    assert raw["dynamic"] == ["version"] and "version" not in raw
    assert pyproject.read_configuration(path)["project"]["version"] \
        == pairemit.__version__
