"""String-keyed plugin registries for strategies and backends.

One tiny mechanism shared by both extension points of the pipeline: a named
:class:`Registry` mapping keys to factories, with decorator-style
registration so third-party strategies/backends plug in without touching the
library (`@STRATEGIES.register("my_strategy")`).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.exceptions import CompileError


class Registry:
    """A case-insensitive name → factory mapping with decorator registration."""

    def __init__(self, kind: str):
        self.kind = kind
        self._factories: dict[str, Callable] = {}
        #: Bumped by every :meth:`register` and :meth:`unregister`, so a warm
        #: process pool can tell whether its workers' copy is still current.
        self.version = 0

    def register(self, name: str, factory: Callable | None = None):
        """Register a factory under ``name`` (usable as a decorator)."""
        key = name.lower()

        def _store(fn: Callable) -> Callable:
            self._factories[key] = fn
            self.version += 1
            return fn

        return _store if factory is None else _store(factory)

    def unregister(self, name: str) -> None:
        self._factories.pop(name.lower(), None)
        self.version += 1

    def create(self, name: str, /, *args, **kwargs):
        """Instantiate the factory registered under ``name``."""
        key = name.lower()
        if key not in self._factories:
            raise CompileError(
                f"unknown {self.kind} {name!r}; available: {', '.join(self.names())}"
            )
        return self._factories[key](*args, **kwargs)

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._factories))

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._factories
