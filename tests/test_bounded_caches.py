"""Every functools cache in the package has a finite maxsize: an unbounded
one grows for the life of the process (a ``scan`` meets thousands of
fields), and the principal-cycle cache holds lists half as long as the
period."""

import importlib
import inspect
import pkgutil

import cubicha
from cubicha import arith


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
    assert "cubicha.quadrep._cycle_points" in caches
    assert "cubicha.quadrep._indefinite_certificate" in caches
    assert "cubicha.arith._sqrt_mod_prime_power" in caches
    unbounded = [name for name, fn in caches.items() if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []


def test_cache_clear_sweep_empties_the_root_cache():
    # the sweep with which the benchmark starts each pass from cold caches:
    # cache_clear on every global of the module that has one
    arith.sqrt_mod(2, {7: 3, 17: 1})
    info = arith._sqrt_mod_prime_power.cache_info()
    assert info.currsize > 0 and info.maxsize == arith.ROOT_CACHE_SIZE
    for obj in vars(arith).values():
        clear = getattr(obj, "cache_clear", None)
        if callable(clear):
            clear()
    assert arith._sqrt_mod_prime_power.cache_info().currsize == 0
