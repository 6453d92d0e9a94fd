"""The package namespace: every public name, loaded from its home module on
first use."""

import importlib
import inspect

import pytest

import spintomo


@pytest.mark.parametrize("name", spintomo.__all__)
def test_each_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"spintomo.{spintomo._HOME_OF[name]}")
    value = getattr(spintomo, name)
    assert value is getattr(home, name)
    if inspect.isclass(value) or inspect.isfunction(value):
        # Defined in its home module, not imported there.
        assert value.__module__ == home.__name__
    assert name in dir(spintomo)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from spintomo import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == spintomo.__all__
    for name in spintomo.__all__:
        assert namespace[name] is getattr(spintomo, name)


def test_all_lists_each_public_name_once_in_sorted_order():
    names = [name for names in spintomo._HOMES.values() for name in names]
    assert len(names) == len(set(names)) == len(spintomo.__all__) == 56
    assert spintomo.__all__ == sorted(names)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'spintomo' has no attribute 'density_from_q'$"):
        spintomo.density_from_q
    assert "density_from_q" not in dir(spintomo)
    # A submodule is still imported by name.
    from spintomo import general_inversion

    assert general_inversion is importlib.import_module("spintomo.general_inversion")
