"""Examples: importable, documented, and runnable end to end.

Every example's ``main()`` runs with its output captured, so an example
that no longer works against the library fails here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def load(path: Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_expected_examples_present():
    names = {p.stem for p in EXAMPLE_FILES}
    assert {
        "quickstart",
        "jacobi_scaling",
        "capacity_planning",
        "power_capped_scheduling",
        "custom_workload",
        "adaptive_runtime",
        "gear_vector_tuning",
    } <= names


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_importable_with_main(path):
    module = load(path)
    assert module.__doc__, f"{path.stem} needs a module docstring"
    assert callable(getattr(module, "main", None)), f"{path.stem} needs main()"


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_has_run_instructions(path):
    assert "Run:" in path.read_text(), f"{path.stem} docstring lacks run line"


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_main_runs(path, capsys):
    load(path).main()
    assert capsys.readouterr().out, f"{path.stem} printed nothing"
