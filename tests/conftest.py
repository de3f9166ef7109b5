"""Every test starts with every module-level cache of the package emptied:
today the CLI's kept polytope (`cli._polytope`), its kept reciprocity checks
(`cli._reciprocity`) and the Newton terms of `polynomial.interpolate`.  A
test that patches how a polytope is built, what a face map or a count
computes, must see a fresh computation, whatever test ran before it on
equal arguments."""

import importlib
import pkgutil

import pytest

import gpcount


def package_caches() -> dict:
    """Each function with `cache_clear` defined at the top level of a
    module of the package, by "module.name".  `__main__`, which runs the CLI
    when imported, is not walked."""
    caches = {}
    for info in pkgutil.iter_modules(gpcount.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"gpcount.{info.name}")
        for name, value in vars(module).items():
            if (hasattr(value, "cache_clear")
                    and getattr(value, "__module__", None) == module.__name__):
                caches[f"{info.name}.{name}"] = value
    return caches


CACHES = tuple(package_caches().values())


@pytest.fixture(autouse=True)
def empty_package_caches():
    for cache in CACHES:
        cache.cache_clear()
