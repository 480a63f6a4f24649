"""The package's public names: each module declares its own in __all__, and
`stridelab` re-exports exactly those."""

import stridelab
from stridelab import analysis, biped, control, errors, estimate, pendulum, simlab

MODULES = (errors, pendulum, biped, control, estimate, simlab, analysis)


def test_package_exports_each_modules_all():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))  # no name is public in two modules
    assert sorted(stridelab.__all__) == sorted(names + ["__version__"])
    for module in MODULES:
        for name in module.__all__:
            assert getattr(stridelab, name) is getattr(module, name), (module.__name__, name)
