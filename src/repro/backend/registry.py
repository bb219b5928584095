"""Backend registry: name -> lazily-constructed :class:`ArrayBackend`.

The two built-in backends (``numpy``, ``array-api-strict``)
self-register below; third-party packages add theirs through the
``repro.array_backends`` entry-point group (a factory callable
returning an :class:`~repro.backend.base.ArrayBackend`) or
:func:`register_backend`.  Construction is lazy and memoized:
registering costs nothing, and an optional dependency (CuPy, torch,
array-api-strict) is only imported when its backend is actually
selected -- :func:`get_backend` converts the ``ImportError`` into a
message naming the missing package instead of silently falling back
to numpy.
"""

from __future__ import annotations

from importlib import metadata
from typing import Callable

from .base import ArrayBackend

__all__ = [
    "register_backend",
    "get_backend",
    "backend_names",
]

#: name -> factory (lazy); populated by built-ins + entry points
_FACTORIES: dict[str, Callable[[], ArrayBackend]] = {}
#: name -> constructed instance (memoized)
_INSTANCES: dict[str, ArrayBackend] = {}
_ENTRY_POINTS_LOADED = False


def register_backend(name: str, factory: Callable[[], ArrayBackend],
                     replace: bool = False) -> None:
    """Register a backend factory under ``name``.

    ``factory`` is called (once, memoized) on first selection; it may
    raise ``ImportError`` for missing optional dependencies.
    """
    if name in _FACTORIES and not replace:
        raise ValueError(f"backend {name!r} already registered")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def _load_entry_points() -> None:
    global _ENTRY_POINTS_LOADED
    if _ENTRY_POINTS_LOADED:
        return
    _ENTRY_POINTS_LOADED = True
    try:
        eps = metadata.entry_points(group="repro.array_backends")
    except Exception:  # pragma: no cover - metadata backends vary
        return
    for ep in eps:
        if ep.name not in _FACTORIES:
            # late-bound: the distribution's factory loads on selection
            _FACTORIES[ep.name] = _EntryPointFactory(ep)


class _EntryPointFactory:
    """Defers an entry point's module import to first selection."""

    def __init__(self, ep):
        self._ep = ep

    def __call__(self) -> ArrayBackend:
        """Load the entry point and build its backend."""
        return self._ep.load()()


def backend_names() -> tuple[str, ...]:
    """All registered backend names (available or not)."""
    _load_entry_points()
    return tuple(sorted(_FACTORIES))


def get_backend(name: str | ArrayBackend | None = None) -> ArrayBackend:
    """The backend registered under ``name`` (default ``"numpy"``).

    Passing an :class:`ArrayBackend` instance returns it unchanged (so
    APIs can accept either spelling).  Unknown names and registered-
    but-unavailable backends raise ``ValueError`` with the candidates
    / the missing dependency named.
    """
    if isinstance(name, ArrayBackend):
        return name
    if name is None:
        name = "numpy"
    # the memoized instance first: this sits on every kernel's entry
    inst = _INSTANCES.get(name)
    if inst is not None:
        return inst
    _load_entry_points()
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown array backend {name!r}; registered: "
            f"{', '.join(backend_names())}")
    try:
        inst = factory()
    except ImportError as exc:
        raise ValueError(
            f"array backend {name!r} is registered but unavailable "
            f"on this host ({exc})") from exc
    _INSTANCES[name] = inst
    return inst


# -- built-in registrations (all lazy) ---------------------------------
def _numpy_factory() -> ArrayBackend:
    from .numpy_backend import NumpyBackend

    return NumpyBackend()


def _strict_factory() -> ArrayBackend:
    from .strict_backend import ArrayApiStrictBackend

    return ArrayApiStrictBackend()


register_backend("numpy", _numpy_factory)
register_backend("array-api-strict", _strict_factory)
