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


def test_traced_table_file_records_validate_table(tracing, capsys, tmp_path):
    # The benchmark's groups.validate_* counters read this span.
    from ordersum import cli

    path = tmp_path / "c4.json"
    path.write_text("[[0,1,2,3],[1,2,3,0],[2,3,0,1],[3,0,1,2]]")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["psi", f"table:{path}"])
    finally:
        tracer.remove()
    assert code == 0 and capsys.readouterr().out == "11\n"
    assert "groups.validate_table" in {span[0] for span in tracer.spans}
    assert tracer.metrics(wall=1.0)["groups.validate_calls"] == 1


def traced_psi(tracing, spec: str):
    """The tracer after a traced `psi spec` run that exits 0."""
    from ordersum import cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["psi", spec]) == 0
    finally:
        tracer.remove()
    return tracer


def test_traced_law_walk_counts_its_elements(tracing, capsys):
    # groups.order_walk_elements is len() of the law the walk is given.
    tracer = traced_psi(tracing, "C2048")
    assert capsys.readouterr().out == "2796203\n"
    metrics = tracer.metrics(wall=1.0)
    assert metrics["groups.order_walk_calls"] == 1
    assert metrics["groups.order_walk_elements"] == 2048


def test_traced_small_group_is_validated_not_walked(tracing, capsys):
    # Up to HARD_CAP the rows are checked and walked by validate_table alone.
    tracer = traced_psi(tracing, "Q8")
    assert capsys.readouterr().out == "27\n"
    names = {span[0] for span in tracer.spans}
    assert "groups.validate_table" in names
    assert "groups.element_orders_of_table" not in names
    assert tracer.metrics(wall=1.0)["groups.order_walk_elements"] == 0
