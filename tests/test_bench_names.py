"""The slrc names that the benchmark reads, checked from bench/'s source.

`bench/spans.py` patches the functions of its SPANS by name and
`bench/workloads.py` calls and patches slrc attributes by name, so a
rename in `src/` would end a benchmark run; these tests read both files'
syntax trees, import nothing from bench/ and change none of it.
"""

import ast
import importlib
import pathlib

import pytest

from slrc import construct

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _tree(name):
    return ast.parse((BENCH / name).read_text())


def _spans():
    """(module, attribute path) of each SPANS entry of bench/spans.py."""
    (value,) = [node.value for node in ast.walk(_tree("spans.py"))
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None)
                     for t in node.targets] == ["SPANS"]]
    return [(entry.elts[0].value, entry.elts[1].value)
            for entry in value.elts]


@pytest.mark.parametrize("module, path", _spans())
def test_every_span_resolves_as_the_tracer_resolves_it(module, path):
    # `Tracer.install`: a dotted path is an entry of the class __dict__,
    # wrapped as a property's getter or as a function; any other path is a
    # module attribute
    owner = importlib.import_module(module)
    if "." in path:
        cls_name, attr = path.split(".")
        found = vars(getattr(owner, cls_name))[attr]
        assert isinstance(found, property) or callable(found), path
    else:
        assert callable(getattr(owner, path)), path


def _module_chains():
    """Each dotted name rooted at an slrc module that bench/workloads.py
    imports, such as "simulate.plan_repair", read off its syntax tree."""
    tree = _tree("workloads.py")
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "slrc":
            modules.update((alias.asname or alias.name, alias.name)
                           for alias in node.names)
    chains = set()
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in modules and names:
            chains.add(".".join([modules[node.id], *reversed(names)]))
    return sorted(chains)


@pytest.mark.parametrize("chain", _module_chains())
def test_every_name_the_workloads_read_exists(chain):
    module, *names = chain.split(".")
    obj = importlib.import_module(f"slrc.{module}")
    for name in names:
        assert hasattr(obj, name), f"slrc.{chain}"
        obj = getattr(obj, name)


def test_the_scans_find_what_the_repair_workload_reads():
    # what it calls and patches, its replay included, so that neither scan
    # can pass by finding nothing
    assert ("slrc.simulate", "plan_repair") in _spans()
    assert {"simulate.trial_campaign", "simulate.plan_repair",
            "simulate.execute_repair", "construct.ConstructedCode.encode",
            "construct.constructed_from_matrix",
            "linear.dual_low_weight"} <= set(_module_chains())
    # called on a code, which no chain rooted at a module reaches
    assert callable(construct.ConstructedCode.as_linear_code)
