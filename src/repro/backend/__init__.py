"""Swappable array backend + precision policy + preallocated workspaces.

Every hot kernel in the model (spectral transforms, ocean stepping, the
coupler's regrid passes, the parallel transpose) runs on top of this seam
instead of calling ``numpy`` allocation primitives ad hoc:

* :class:`ArrayBackend` — the array substrate.  The default is NumPy;
  alternates register under a name and are selected with the
  ``FOAM_BACKEND`` environment variable (or explicitly via config).
  A backend whose dependency is not installed (torch) stays registered
  but raises :class:`BackendUnavailableError` with an actionable
  message when selected.
* :class:`DTypePolicy` — the precision policy (``float32``/``float64``
  plus the matching complex type), selected with ``FOAM_DTYPE`` and
  threaded through the grid/spectral constructors instead of hard-coded
  ``float64``/``complex`` literals.
* :class:`Workspace` — a named, shape/dtype-keyed arena of reusable
  buffers.  Hot paths request scratch by name and get the same buffer
  back every step, so the steady-state allocation count of a step is
  (near) zero.  Hit/miss counts feed the profiler (``ws.hits`` /
  ``ws.misses`` per section), which is how the win is measured.

The contract that keeps the default configuration *bitwise identical* to
ad-hoc allocation: a workspace buffer holds exactly what the requesting
call site writes into it, the arithmetic performed on it is the same
sequence of NumPy ufunc applications as before, and only values that do
not escape the requesting step live in the arena.
"""

from repro.backend.core import (
    ArrayBackend,
    BackendUnavailableError,
    NumpyBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.backend.kernels import robert_filter
from repro.backend.dtypes import (
    FLOAT32,
    FLOAT64,
    DTypePolicy,
    default_policy,
    dtype_policy,
    policy_from_name,
    set_default_dtype,
)
from repro.backend.workspace import (
    Workspace,
    arenas_disjoint,
    get_workspace,
    reset_workspaces,
    workspace_enabled,
    workspace_totals,
)

__all__ = [
    "ArrayBackend", "BackendUnavailableError", "NumpyBackend",
    "available_backends", "get_backend", "register_backend",
    "DTypePolicy", "FLOAT32", "FLOAT64", "default_policy", "dtype_policy",
    "policy_from_name", "set_default_dtype",
    "Workspace", "arenas_disjoint", "get_workspace", "reset_workspaces", "workspace_enabled",
    "workspace_totals",
    "robert_filter",
]
