"""The benchmark's traced run (perfbench/layers.py) wraps program
functions at fixed (module, attribute) sites, and its tracer refuses a
function whose sites hold different objects.  Check that every site
exists and that the sites of one function agree.  Nothing is wrapped
here: the timing tests share this process."""

import importlib
import importlib.util
import pathlib

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_wrap_sites_exist_and_agree():
    layers = _layers()
    groups = [(name, pairs) for name, pairs, _ in layers.FUNCTIONS]
    groups += [("core.json", pairs) for pairs, _ in layers.JSON_FUNCTIONS]
    for name, pairs in groups:
        found = []
        for module, attr in pairs:
            mod = importlib.import_module(module)
            assert hasattr(mod, attr), "%s: %s.%s is gone" % (name, module,
                                                              attr)
            found.append(getattr(mod, attr))
        assert all(f is found[0] for f in found), (name, pairs)
