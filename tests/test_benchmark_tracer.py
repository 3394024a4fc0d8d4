"""The benchmark's tracer wraps c4distill functions by name; every name it
lists must still exist, or a traced benchmark run fails when it starts."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # defines the tables; installs nothing

    def module(name):
        return importlib.import_module(f"c4distill.{name}")

    for name in tracing.MODULES:
        module(name)
    for mod_name, attr in tracing.FUNCTIONS:
        assert callable(getattr(module(mod_name), attr, None)), f"{mod_name}.{attr}"
    for mod_name, cls_name, method, _ in tracing.METHODS + tracing.COUNTED:
        cls = getattr(module(mod_name), cls_name, None)
        assert cls is not None, f"{mod_name}.{cls_name}"
        assert callable(getattr(cls, method, None)), f"{mod_name}.{cls_name}.{method}"
