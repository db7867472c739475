"""Griesmer and Singleton bounds for systematic codes, with exhaustive
feasibility search for tail assignments at the critical length.

A public name imports its module on first use (PEP 562), so importing
one module, such as griesmer.bounds, loads no other.
"""

__version__ = "0.1.0"

# public name -> the module that defines it
_MODULES = {
    "Code": "core", "CodeParams": "core", "Word": "core",
    "distance": "core", "is_systematic": "core", "min_distance": "core",
    "BoundReport": "bounds", "bound_report": "bounds", "bound_table": "bounds",
    "griesmer_sum": "bounds", "griesmer_term": "bounds", "singleton_bound": "bounds",
    "table_to_csv": "bounds", "GuardLimitError": "bounds",
    "SearchOutcome": "search", "WitnessSet": "search", "full_search": "search",
    "load_witness_set": "search", "parse_witness_set": "search", "tail_search": "search",
    "THEOREM_IDS": "theorems", "Verdict": "theorems", "verify": "theorems",
    "verify_all": "theorems", "witness_set_for": "theorems",
}

__all__ = [*_MODULES, "__version__"]


def __getattr__(name: str) -> object:
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # imported on first use too: under python -S nothing has loaded importlib yet
    from importlib import import_module

    value = getattr(import_module(f".{_MODULES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES})
