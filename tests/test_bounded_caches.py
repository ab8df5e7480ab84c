"""Every functools cache in the package has a finite maxsize: an unbounded
one grows for the life of the process (a ``scan`` meets thousands of
fields), and the principal-cycle cache holds arrays as long as the period."""

import importlib
import inspect
import pkgutil

import cubicha


def functools_caches():
    for info in pkgutil.iter_modules(cubicha.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        mod = importlib.import_module(f"cubicha.{info.name}")
        objs = list(vars(mod).items())
        objs += [
            (f"{name}.{attr}", val)
            for name, cls in vars(mod).items()
            if inspect.isclass(cls) and cls.__module__ == mod.__name__
            for attr, val in vars(cls).items()
        ]
        for name, obj in objs:
            if callable(getattr(obj, "cache_parameters", None)):
                yield f"{mod.__name__}.{name}", obj


def test_every_functools_cache_is_bounded():
    caches = dict(functools_caches())
    assert "cubicha.quadrep._principal_cycle" in caches
    assert "cubicha.quadrep._located_roots" in caches
    unbounded = [name for name, fn in caches.items() if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []
