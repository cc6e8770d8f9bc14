"""Every library name the benchmark's tracer rebinds must exist.

``bench/tracer.py`` wraps functions and classmethods by module and name;
a name the library drops breaks every traced benchmark pass.  This test
reads the tracer's tables and leaves ``bench/`` unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _missing(where: str, what: str) -> str:
    return (f"bench/tracer.py rebinds {where}, {what}; removing or renaming a "
            "traced name needs a benchmark change (ROADMAP item 3)")


def test_tracer_targets_resolve_in_the_library():
    tracer = _tracer()
    targets = [(name, module, attr) for name, (module, attr, _) in tracer.SPANS.items()]
    targets += [(name, module, attr) for name, (module, attr) in tracer.COUNTERS.items()]
    for name, module_name, attr in targets:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), _missing(f"{module_name}.{attr} for {name!r}",
                                      "which the library no longer defines")
    for name, (module_name, cls_name, attr) in tracer.CLASS_SPANS.items():
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        where = f"{module_name}.{cls_name}.{attr} for {name!r}"
        assert cls is not None, _missing(where, f"but {module_name} defines no {cls_name}")
        assert isinstance(cls.__dict__.get(attr), classmethod), _missing(
            where, "which is not a classmethod defined on that class")
