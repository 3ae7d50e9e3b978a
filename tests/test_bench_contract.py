"""The benchmark's tracing contract with the package.

`perfbench/tracing.py` wraps the functions it names in `TRACED` by replacing
them in every `ordersum` module namespace that binds them.  These tests load
it read-only and check that the names still exist and that a traced CLI run
still reaches the wrapped checker and renderer, which it does only while the
CLI looks the checkers up by name at call time.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_functions(tracing):
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"ordersum.{layer}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"{layer}.{name}"


def test_traced_verify_records_checker_and_renderer(tracing, capsys):
    from ordersum import cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["verify", "lemma5", "--mkmax", "20"])
    finally:
        tracer.remove()
    assert code == 0 and "[HOLDS] lemma5" in capsys.readouterr().out
    names = {span[0] for span in tracer.spans}
    assert "theorems.lemma5_check" in names
    assert "theorems.reports_to_text" in names
    assert tracer.metrics(wall=1.0)["theorems.check_s"] > 0
