"""murmurlab: batch analysis of elliptic-curve murmurations and BSD invariants.

The package is organised around a single data flow: a canonical curve CSV is
ingested into a CurveTable (`curves`), Frobenius traces are computed for a
shared prime list into a TraceMatrix (`traces`), and the statistical layers
(`windows`, `stratify`, `confound`, `diagnostics`, `lfunctions`) operate on
those two immutable objects.  `cli` wires everything into reproducible runs.

Every submodule but `cli` is registered lazily (`importlib.util.LazyLoader`):
importing the package puts each one in `sys.modules` and binds it as a
package attribute, but a module's code runs only on the first access to one
of its attributes.  So a CLI step compiles and runs only the modules it
calls, and `report` runs without NumPy.  `from . import name` and
`import murmurlab.name` bind a module without running it; `from .name import
x`, like any attribute access, runs it.  A lazy load takes no lock, so each
module is first touched on the main thread.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _register_lazily(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


for _name in ("confound", "curves", "diagnostics", "export", "lfunctions", "primes",
              "stratify", "traces", "windows"):
    globals()[_name] = _register_lazily(_name)
del _name
