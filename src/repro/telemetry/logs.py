"""The ``repro.*`` logging hierarchy.

Library modules log through ``logging.getLogger("repro.<area>")`` and never
configure handlers — ``repro/__init__`` attaches a :class:`~logging.NullHandler`
so importing the library stays silent, as a library should.  Entry points
(the ``repro.runtime`` / ``repro.service`` / ``repro.telemetry`` CLIs and the
daemon) call :func:`configure_logging` to attach a stderr handler whose level
comes from ``REPRO_LOG`` (default ``WARNING``), which is how lost leases,
pool restarts, and quarantined job files become visible.
"""

from __future__ import annotations

import logging
import os

LOG_ENV = "REPRO_LOG"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
    "critical": logging.CRITICAL,
}


def log_level() -> int:
    """The level ``REPRO_LOG`` asks for (name or number; default WARNING)."""
    raw = os.environ.get(LOG_ENV, "").strip().lower()
    if raw in _LEVELS:
        return _LEVELS[raw]
    if raw.isdigit():
        return int(raw)
    return logging.WARNING


def configure_logging(level: "int | str | None" = None) -> logging.Logger:
    """Attach a stderr handler to the ``repro`` logger (idempotent).

    Called from CLI entry points, not on import.  A second call only
    adjusts the level, so tests and nested CLIs never stack handlers.
    """
    if isinstance(level, str):
        level = _LEVELS.get(level.strip().lower(), logging.WARNING)
    if level is None:
        level = log_level()
    root = logging.getLogger("repro")
    configured = any(
        not isinstance(handler, logging.NullHandler) for handler in root.handlers
    )
    if not configured:
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
        )
        root.addHandler(handler)
    root.setLevel(level)
    return root
