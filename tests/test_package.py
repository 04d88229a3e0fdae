"""The package surface: public names, result records and tracer targets."""

import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import runlength
import runlength.cli
from runlength import closed_form, spectral, transfer, tree
from runlength.errors import DomainError, InvariantError
from runlength.params import Params
from runlength.ratmat import RationalMatrix
from runlength.simulate import simulate

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"

# ------------------------------------------------------------- public names


@pytest.mark.parametrize("name", sorted(set(runlength.__all__) - {"__version__"}))
def test_every_public_name_is_its_defining_modules_object(name):
    value = getattr(runlength, name)
    assert value.__module__.startswith("runlength.")
    assert getattr(sys.modules[value.__module__], name) is value


def test_simulate_stays_the_function_after_its_module_is_imported():
    importlib.import_module("runlength.simulate")
    assert runlength.simulate is sys.modules["runlength.simulate"].simulate


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        runlength.no_such_name  # noqa: B018


# ------------------------------------------------------------ result records


def _one_of_each_record():
    params = Params(2, 3)
    return [
        params,
        closed_form.moment_report(params),
        spectral.verify_root_bound(params),
        simulate(params, trials=4, seed=1),
        tree.TreeModel(params),
        tree.path_sum_depth_count(params),
        transfer.distribution(params, Fraction(1, 100)),
        RationalMatrix.identity(2),
    ]


RECORDS = _one_of_each_record()


def test_params_repr_names_its_fields():
    assert repr(Params(2, 60)) == "Params(m=2, n=60)"
    assert Params(m=2, n=60) == Params(2, 60)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_compare_by_value(record):
    assert record == type(record)(*record)
    assert repr(record).startswith(f"{type(record).__name__}({record._fields[0]}=")


@pytest.mark.parametrize("m,n", [(0, 2), (2, 0), (2.0, 2), ("2", 2)])
def test_invalid_params_raise_domain_error(m, n):
    with pytest.raises(DomainError):
        Params(m, n)


def test_tree_report_with_inconsistent_depth_counts_raises_invariant_error():
    with pytest.raises(InvariantError, match="per-depth counts sum to 3, expected 4"):
        tree.TreeReport(Params(2, 1), edge_count=2, path_sum=4, per_depth=((1, 3),), method="x")


@pytest.mark.parametrize("entries", [(), ((),), ((1, 2), (3,))])
def test_malformed_rational_matrix_raises_value_error(entries):
    with pytest.raises(ValueError):
        RationalMatrix(entries)


# ----------------------------------------------------------- tracer targets


def test_every_tracer_target_resolves_and_cli_calls_the_simulator_itself():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, attribute, _, _ in spans._TARGETS:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attribute)
    # a wrapper here would be traced as a second simulate call
    assert runlength.cli.run_trials is sys.modules["runlength.simulate"].simulate
