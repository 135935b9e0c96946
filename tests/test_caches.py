"""Every memo in the package, with its key and its bound: each
``functools.lru_cache`` and each module-level table (a ``dict`` whose name is
not upper case; upper-case ones are constants).

A memo holds its arguments and results for the life of the process unless
it is bounded.  The package's memos are listed below against the ones the
modules define, so a new memo, or a changed key or bound, fails here until
the list is updated; an unbounded one also needs its reason written down.
A table has no bound.
"""

import importlib
import inspect
import pkgutil

import qcblowup
from qcblowup import classical_presentation, derive_params

# qualified name -> (key parameters, maxsize or None for unbounded, reason)
ALLOWED = {
    "qcblowup.poly.bundle_variables": (
        ("r", "n"), 128, "one interned preset per (r, n); four short tuples each"),
    "qcblowup.poly.blowup_variables": (
        ("r", "n"), 128, "one interned preset per (r, n); four short tuples each"),
    "qcblowup.geometry._binary_form": (
        ("a", "b", "images"), 1024,
        "one integer row per exponent pair and direction; every pair of degree <= 30 fits"),
    "qcblowup.geometry._rings": (
        ("params", "coords", "quantum"), None,
        "unbounded: one ring per instance and coordinate system, whatever the budget (a"
        " budget is checked against the run's peak degree); the suites of a grid instance"
        " share it, and its quotient holds the product memo"),
    "qcblowup.quantum._basis_pairs": (
        ("staircase",), 1,
        "the basis-pair list of the last staircase asked: both quantum suites of an instance"
        " walk the same deformed bundle staircase in turn"),
    "qcblowup.quantum.basis_corrections": (
        ("qp",), None,
        "unbounded: one read-only set of corrections per deformed bundle ring, which every"
        " product and invariant of the instance reads"),
    "qcblowup.quantum._kernel": (
        ("qp",), None,
        "unbounded: like the rings it reads, one query kernel per deformed bundle ring,"
        " which the blow-up presentation's entry shares; its one memo holds the paired"
        " rows of each product monomial an invariant reads"),
}


def package_modules():
    names = [qcblowup.__name__] + [
        info.name for info in pkgutil.iter_modules(qcblowup.__path__, "qcblowup.")
    ]
    return {name: importlib.import_module(name) for name in names}


def package_caches():
    """The lru_cache wrappers defined in qcblowup, at module level or on a
    class, keyed by qualified name."""
    found = {}
    for name, module in package_modules().items():
        owners = [module] + [
            cls for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == name
        ]
        for owner in owners:
            for obj in vars(owner).values():
                obj = getattr(obj, "__func__", obj)  # staticmethod, classmethod
                if hasattr(obj, "cache_parameters") and obj.__module__ == name:
                    found[f"{name}.{obj.__qualname__}"] = obj
    return found


def package_tables():
    """The module-level dicts of qcblowup not named in upper case, keyed by
    qualified name."""
    return {
        f"{name}.{attr}": obj
        for name, module in package_modules().items()
        for attr, obj in vars(module).items()
        if type(obj) is dict and not attr.startswith("__") and attr != attr.upper()
    }


def test_every_memo_is_on_the_allow_list():
    found = {**package_caches(), **package_tables()}
    assert sorted(found) == sorted(ALLOWED)


def test_each_memo_has_its_listed_key_and_bound():
    for name, cache in package_caches().items():
        key, bound, reason = ALLOWED[name]
        assert tuple(inspect.signature(cache.__wrapped__).parameters) == key, name
        assert cache.cache_parameters()["maxsize"] == bound, name
        assert reason.startswith("unbounded: ") == (bound is None), name


def test_each_table_is_unbounded_and_keyed_as_listed():
    classical_presentation(derive_params(4, 0), "bundle")  # at least one entry
    for name, table in package_tables().items():
        key, bound, reason = ALLOWED[name]
        assert bound is None and reason.startswith("unbounded: "), name
        assert table and all(len(entry) == len(key) for entry in table), name
