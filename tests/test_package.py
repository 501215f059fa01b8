import importlib

import datamarket

MODULES = ("auction", "fitting", "market", "optimize", "scenario", "simulate")


def module(name):
    # importlib, as the attribute datamarket.simulate is the function
    return importlib.import_module(f"datamarket.{name}")


class TestPackageSurface:
    def test_all_is_the_module_lists_joined(self):
        joined = [name for m in MODULES for name in module(m).__all__]
        assert datamarket.__all__ == joined
        assert len(set(joined)) == len(joined)

    def test_every_name_is_its_module_object(self):
        for m in MODULES:
            for name in module(m).__all__:
                assert getattr(datamarket, name) is getattr(module(m), name), name

    def test_simulate_attribute_is_the_function(self):
        assert datamarket.simulate is module("simulate").simulate
        assert callable(datamarket.simulate)
