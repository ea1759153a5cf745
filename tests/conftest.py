"""A monkeypatch that refuses to patch a name a dualtriad module only serves.

A module that forwards a name through its __getattr__ holds no copy of it,
and no code reads the name there: setattr on such a module would add a
copy that nothing calls, and the test would pass without checking anything.
"""

import types

import pytest


class GuardedMonkeyPatch(pytest.MonkeyPatch):
    def setattr(self, target, name, *args, **kwargs):
        if (isinstance(target, types.ModuleType) and target.__name__.startswith("dualtriad")
                and isinstance(name, str) and name not in vars(target) and hasattr(target, name)):
            home = getattr(getattr(target, name), "__module__", "the module that defines it")
            raise AttributeError(f"{target.__name__} only serves {name!r}, which no code reads there: "
                                 f"patch it in {home}")
        super().setattr(target, name, *args, **kwargs)


@pytest.fixture
def monkeypatch():
    with GuardedMonkeyPatch.context() as patch:
        yield patch
