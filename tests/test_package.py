import importlib
from itertools import combinations

import gdseries

# the modules whose public names the package re-exports
MODULES = ("estimates", "frequency", "series", "riesz", "bounds", "perron", "neder")


def _public(module):
    return importlib.import_module(f"gdseries.{module}").__all__


def test_module_public_names_are_pairwise_disjoint():
    # a star import would let a later module shadow an earlier one's name
    for a, b in combinations(MODULES, 2):
        assert set(_public(a)).isdisjoint(_public(b)), (a, b, set(_public(a)) & set(_public(b)))


def test_package_public_names_are_the_union_of_the_modules():
    union = [name for module in MODULES for name in _public(module)]
    assert sorted(gdseries.__all__) == sorted(union)


def test_package_names_are_the_defining_modules_objects():
    for module in MODULES:
        mod = importlib.import_module(f"gdseries.{module}")
        for name in mod.__all__:
            assert getattr(gdseries, name) is getattr(mod, name), f"gdseries.{name}"
