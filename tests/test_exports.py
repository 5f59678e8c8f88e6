import importlib
import pkgutil

import pytest

import vortex_twm

MODULES = [vortex_twm] + [importlib.import_module(f"vortex_twm.{info.name}")
                          for info in pkgutil.iter_modules(vortex_twm.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves_once(module):
    names = module.__all__
    assert len(set(names)) == len(names), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(module, n)] == []
