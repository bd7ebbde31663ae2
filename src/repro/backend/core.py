"""Array backend registry: the substrate hot kernels allocate through.

A backend supplies the array module (``xp``) plus the small allocation
surface the model needs (``empty``/``zeros``/``asarray``/``to_numpy``).
The default is NumPy and is always available.  Alternate backends
register a *factory* under a name; the factory runs (and imports its
dependency) only when the backend is actually selected, so merely having
a ``torch`` entry in the registry costs nothing and a missing
dependency surfaces as a clear :class:`BackendUnavailableError` instead
of an ImportError at module import time.

Selection: ``get_backend(None)`` honours the ``FOAM_BACKEND``
environment variable and falls back to ``"numpy"``.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "ArrayBackend", "NumpyBackend", "BackendUnavailableError",
    "register_backend", "get_backend", "available_backends",
]


class BackendUnavailableError(RuntimeError):
    """Raised when a registered backend's dependency is not importable."""


@runtime_checkable
class ArrayBackend(Protocol):
    """What a backend must provide for the model's hot paths.

    Beyond allocation, the spectral transforms
    (:class:`~repro.atmosphere.spectral.SpectralTransform`) need the
    handful of compute ops below.
    Every compute op accepts and returns NumPy arrays at the call
    boundary — a backend is free to execute on its own array type
    internally (the torch backend wraps operands zero-copy via
    ``torch.from_numpy`` and writes results into the shared memory of the
    ``out`` argument), so host state arrays flow through unchanged and
    conversion happens only where a backend keeps device-resident data.
    """

    name: str

    @property
    def xp(self) -> Any:
        """The array-API module (numpy, torch, ...)."""
        ...

    def empty(self, shape, dtype) -> Any: ...

    def zeros(self, shape, dtype) -> Any: ...

    def asarray(self, arr, dtype=None) -> Any: ...

    def to_numpy(self, arr) -> np.ndarray: ...

    # -- compute ops for the spectral transforms ------------------------
    def einsum(self, subscripts: str, *operands, out=None) -> Any: ...

    def matmul(self, a, b, out=None) -> Any: ...

    def rfft(self, x, axis: int = -1) -> Any: ...

    def irfft(self, x, n: int, axis: int = -1) -> Any: ...

    def where(self, cond, a, b) -> Any: ...

    def multiply(self, a, b, out=None) -> Any: ...

    def divide(self, a, b, out=None) -> Any: ...

    def add(self, a, b, out=None) -> Any: ...

    def subtract(self, a, b, out=None) -> Any: ...


class NumpyBackend:
    """The default backend: plain NumPy, host memory.

    The compute ops are direct aliases of the NumPy calls the kernels
    previously issued inline, so routing through the backend is bitwise
    neutral on the default path.
    """

    name = "numpy"

    @property
    def xp(self):
        return np

    def empty(self, shape, dtype):
        return np.empty(shape, dtype=dtype)

    def zeros(self, shape, dtype):
        return np.zeros(shape, dtype=dtype)

    def asarray(self, arr, dtype=None):
        return np.asarray(arr, dtype=dtype)

    def to_numpy(self, arr):
        return np.asarray(arr)

    def einsum(self, subscripts, *operands, out=None):
        return np.einsum(subscripts, *operands, out=out)

    def matmul(self, a, b, out=None):
        return np.matmul(a, b, out=out)

    def rfft(self, x, axis=-1):
        return np.fft.rfft(x, axis=axis)

    def irfft(self, x, n, axis=-1):
        return np.fft.irfft(x, n=n, axis=axis)

    def where(self, cond, a, b):
        return np.where(cond, a, b)

    def multiply(self, a, b, out=None):
        return np.multiply(a, b, out=out)

    def divide(self, a, b, out=None):
        return np.divide(a, b, out=out)

    def add(self, a, b, out=None):
        return np.add(a, b, out=out)

    def subtract(self, a, b, out=None):
        return np.subtract(a, b, out=out)


_NUMPY = NumpyBackend()

# name -> factory returning a ready ArrayBackend (may raise
# BackendUnavailableError).  Factories run per get_backend call for
# non-default backends; the numpy singleton short-circuits.
_REGISTRY: dict[str, Callable[[], ArrayBackend]] = {}
_CACHE: dict[str, ArrayBackend] = {"numpy": _NUMPY}


def register_backend(name: str, factory: Callable[[], ArrayBackend]) -> None:
    """Register a backend factory under ``name`` (lowercased)."""
    _REGISTRY[name.lower()] = factory
    _CACHE.pop(name.lower(), None)


def available_backends() -> list[str]:
    """All registered backend names (available or not)."""
    return sorted({"numpy", *_REGISTRY})


def get_backend(name: str | ArrayBackend | None = None) -> ArrayBackend:
    """Resolve a backend by name, honouring ``FOAM_BACKEND`` when None."""
    if name is not None and not isinstance(name, str):
        return name
    if name is None:
        name = os.environ.get("FOAM_BACKEND", "numpy")
    key = name.lower()
    if key in _CACHE:
        return _CACHE[key]
    try:
        factory = _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown array backend {name!r}; registered: {available_backends()}"
        ) from None
    backend = factory()
    _CACHE[key] = backend
    return backend


def _torch_factory() -> ArrayBackend:
    try:
        import torch  # noqa: F401
    except ImportError as exc:
        raise BackendUnavailableError(
            "FOAM_BACKEND=torch requested but torch is not installed; "
            "install torch or unset FOAM_BACKEND"
        ) from exc

    class TorchBackend:  # pragma: no cover - requires torch installed
        """CPU torch backend over shared host memory.

        NumPy operands are wrapped zero-copy with ``torch.from_numpy`` and
        results land either in the caller's ``out`` buffer (same memory)
        or come back as a zero-copy ``.numpy()`` view, so the model's
        NumPy-typed state flows through a coupled day with torch executing
        the contractions, FFTs and elementwise chains.  Results are
        tolerance-close (never bitwise) to the NumPy path: torch's einsum
        and pocketfft-equivalent kernels accumulate in different orders.
        """

        name = "torch"

        @property
        def xp(self):
            return torch

        def empty(self, shape, dtype):
            return torch.empty(shape, dtype=self._dt(dtype))

        def zeros(self, shape, dtype):
            return torch.zeros(shape, dtype=self._dt(dtype))

        def asarray(self, arr, dtype=None):
            if isinstance(arr, torch.Tensor):
                t = arr
            else:
                a = np.asarray(arr)
                # from_numpy refuses (warns on) read-only arrays — the
                # cached Legendre plan tables are deliberately frozen.
                if a.flags["WRITEABLE"]:
                    t = torch.from_numpy(a)
                else:
                    t = torch.from_numpy(a.copy())
            return t.to(self._dt(dtype)) if dtype is not None else t

        def to_numpy(self, arr):
            if isinstance(arr, torch.Tensor):
                return arr.detach().cpu().numpy()
            return np.asarray(arr)

        @staticmethod
        def _dt(dtype):
            mapping = {
                np.dtype(np.float32): torch.float32,
                np.dtype(np.float64): torch.float64,
                np.dtype(np.complex64): torch.complex64,
                np.dtype(np.complex128): torch.complex128,
            }
            return mapping[np.dtype(dtype)]

        @staticmethod
        def _wrap(a):
            if isinstance(a, np.ndarray):
                return torch.from_numpy(a)
            return a  # tensors and python scalars pass through

        def _finish(self, result, out):
            if out is None:
                return result.numpy()
            self._wrap(out).copy_(result)
            return out

        def einsum(self, subscripts, *operands, out=None):
            r = torch.einsum(subscripts, *[self._wrap(o) for o in operands])
            return self._finish(r, out)

        def matmul(self, a, b, out=None):
            r = torch.matmul(self._wrap(a), self._wrap(b))
            return self._finish(r, out)

        def rfft(self, x, axis=-1):
            return torch.fft.rfft(self._wrap(x), dim=axis).numpy()

        def irfft(self, x, n, axis=-1):
            return torch.fft.irfft(self._wrap(x), n=n, dim=axis).numpy()

        def where(self, cond, a, b):
            r = torch.where(self._wrap(cond), self._wrap(a), self._wrap(b))
            return r.numpy()

        def _binary(self, fn, a, b, out):
            wa, wb = self._wrap(a), self._wrap(b)
            if out is None:
                return fn(wa, wb).numpy()
            fn(wa, wb, out=self._wrap(out))
            return out

        def multiply(self, a, b, out=None):
            return self._binary(torch.mul, a, b, out)

        def divide(self, a, b, out=None):
            return self._binary(torch.div, a, b, out)

        def add(self, a, b, out=None):
            return self._binary(torch.add, a, b, out)

        def subtract(self, a, b, out=None):
            return self._binary(torch.sub, a, b, out)

    return TorchBackend()


register_backend("torch", _torch_factory)
