"""Every name a module exports through __all__ must exist in it, and a
process loads only the modules it uses."""

import importlib
import json
import pkgutil
import subprocess
import sys
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


def _loaded_after(code: str) -> list[str]:
    """The modules a fresh interpreter holds after running code, which
    finds pairemit where this test imported it from."""
    src = str(Path(pairemit.__file__).resolve().parents[1])
    script = (f"import sys; sys.path.insert(0, {src!r})\n{code}\n"
              "import json; print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_module_of_it():
    loaded = _loaded_after("import pairemit")
    assert "pairemit" in loaded
    assert [m for m in loaded if m.startswith("pairemit.")] == []


def test_importing_the_cli_loads_no_numpy_polynomial():
    # specfun commits its Gauss-Hermite rule instead of building it
    loaded = _loaded_after("from pairemit import cli")
    assert "pairemit.cli" in loaded
    assert not [m for m in loaded if m.startswith("numpy.polynomial")]


def test_importing_robustness_loads_no_numpy_polynomial():
    # robustness commits its Gauss-Hermite rule instead of building it
    loaded = _loaded_after("from pairemit import robustness")
    assert "pairemit.robustness" in loaded
    assert not [m for m in loaded if m.startswith("numpy.polynomial")]


def test_params_loads_only_model():
    loaded = _loaded_after("from pairemit import cli\n"
                           "assert cli.main(['params']) == 0")
    assert [m for m in loaded if m.startswith("pairemit")] \
        == ["pairemit", "pairemit.cli", "pairemit.model"]


def test_closed_form_commands_load_neither_checks_nor_pool(tmp_path):
    # params and fig3 run neither the validation checks nor a process pool,
    # nor the quadrature route
    loaded = _loaded_after(
        "from pairemit import cli\n"
        "assert cli.main(['params']) == 0\n"
        f"assert cli.main(['fig3', '--output', {str(tmp_path / 'f')!r}]) == 0")
    assert "pairemit.peak" in loaded
    assert "pairemit.validation" not in loaded
    assert "concurrent.futures" not in loaded
    for name in ("correlations", "quad", "kernels"):
        assert f"pairemit.{name}" not in loaded
