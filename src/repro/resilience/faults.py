"""Deterministic, seeded fault injection for the whole sweep stack.

A chaos claim ("a sweep survives any single failure") is only provable if the
failures can be *produced on demand, reproducibly*.  This module provides the
production side: named **fault sites** instrumented into the hot paths —
``cache.put``, ``cache.get``, ``worker.execute``, ``protocol.send``,
``daemon.claim`` — and a
:class:`FaultPlan` that decides, deterministically, which calls at which
sites misbehave and how.

The hook is :func:`fault_point`::

    def _put_encoded(self, key, ...):
        fault_point("cache.put")        # may raise OSError(ENOSPC), sleep, …
        ...

and follows the telemetry null-singleton discipline: with no plan configured
and ``REPRO_FAULTS`` unset, a call is one module-global read plus one raw
environ-dict lookup — benched alongside the telemetry overhead claim at
well under 2% of a grid point (see ``benchmarks/bench_resilience_overhead.py``).

Plans come from the ``REPRO_FAULTS`` environment variable (so externally
spawned workers — pool processes, ``repro.service worker`` fleets — inherit
the same chaos), or programmatically via :func:`configure_faults`.

``REPRO_FAULTS`` syntax — ``;``-separated entries::

    REPRO_FAULTS = entry [";" entry]*
    entry        = "seed=" INT            # plan-level RNG seed (default 0)
                 | "state=" DIR           # plan-level marker dir for @once
                 | rule
    rule         = SITE ":" action ["@" mod ["," mod]*]
    action       = "raise" ["=" EXC]      # EXC: ENOSPC EACCES EIO OSError
                 |                        #      ConnectionError TimeoutError
                 |                        #      ConnectionResetError
                 |                        #      BrokenPipeError (default:
                 |                        #      FaultInjected)
                 | "delay=" SECONDS       # sleep, e.g. a hung point
                 | "kill"                 # SIGKILL this process
    mod          = "n=" K                 # fire on the K-th call (1-based)
                 | "every=" K             # fire on every K-th call
                 | "after=" K             # only calls strictly after the K-th
                 | "p=" FLOAT             # fire with probability p (seeded)
                 | "times=" M             # stop after M fires (per process)
                 | "once"                 # fire once — fleet-wide when the
                 |                        # plan has a state= dir (atomic
                 |                        # marker file), else per process

Examples::

    REPRO_FAULTS='cache.put:raise=ENOSPC@n=2'
    REPRO_FAULTS='seed=7;cache.get:raise=EIO@p=0.5,times=3'
    REPRO_FAULTS='state=/tmp/chaos;worker.execute:kill@once'
    REPRO_FAULTS='protocol.send:raise=ConnectionError@every=4'

Determinism: every probabilistic rule draws from its own
``random.Random(f"{seed}:{site}:{rule_index}")`` stream keyed only on the
plan seed and the rule's identity, and every counting trigger uses a
per-rule call counter — so the same plan over the same per-process call
sequence injects exactly the same faults.  A ``ProcessExecutor`` starts
fresh workers for every call while ``REPRO_FAULTS`` is set, so in a pool
the counters count per worker per call.  Every fire increments the
``resilience.faults_injected`` counter (plus a per-site
``resilience.faults.<site>`` counter), so a chaos run can assert the fault
actually happened.
"""

from __future__ import annotations

import errno
import logging
import os
import random
import re
import signal
import threading
import time
from pathlib import Path

from repro.exceptions import ReproError
from repro.telemetry import metrics

logger = logging.getLogger("repro.resilience.faults")

#: The environment variable carrying the fault plan (inherited by workers).
FAULTS_ENV = "REPRO_FAULTS"

# Raw-environ fast path for the disabled check, mirroring telemetry.spans:
# os.environ.get is a Python-level MutableMapping call — too slow for a hook
# on every instrumented hot path.  On POSIX CPython the backing dict stays in
# sync with putenv/monkeypatch, so the disabled path is one dict lookup.
_ENV_KEY = FAULTS_ENV.encode() if os.name == "posix" else FAULTS_ENV
_ENV_DATA = getattr(os.environ, "_data", None) if os.name == "posix" else None


def _env_value() -> "str | None":
    if _ENV_DATA is not None:
        raw = _ENV_DATA.get(_ENV_KEY)
        return None if raw is None else os.fsdecode(raw)
    return os.environ.get(FAULTS_ENV)


class FaultPlanError(ReproError):
    """Raised for an unparsable ``REPRO_FAULTS`` string or invalid rule."""


class FaultInjected(Exception):
    """The default injected exception (when a rule names no specific one).

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: injected
    faults must exercise the same handlers real infrastructure failures hit,
    not a library-error catch-all.
    """


def _oserror(code: int):
    def build(message: str) -> OSError:
        return OSError(code, f"{os.strerror(code)} [injected: {message}]")

    return build


#: Exception names a ``raise=`` action accepts, mapped to constructors.
EXCEPTIONS: "dict[str, object]" = {
    "ENOSPC": _oserror(errno.ENOSPC),
    "EACCES": _oserror(errno.EACCES),
    "EIO": _oserror(errno.EIO),
    "OSError": lambda m: OSError(f"injected: {m}"),
    "ConnectionError": lambda m: ConnectionError(f"injected: {m}"),
    "ConnectionResetError": lambda m: ConnectionResetError(f"injected: {m}"),
    "BrokenPipeError": lambda m: BrokenPipeError(f"injected: {m}"),
    "TimeoutError": lambda m: TimeoutError(f"injected: {m}"),
    "FaultInjected": lambda m: FaultInjected(m),
}

_RULE_RE = re.compile(
    r"^(?P<site>[A-Za-z0-9_.\-]+):(?P<action>raise|delay|kill)"
    r"(?:=(?P<arg>[^@]+))?(?:@(?P<mods>.+))?$"
)


class FaultRule:
    """One site's misbehaviour: an action plus its (deterministic) trigger."""

    __slots__ = (
        "site", "action", "arg", "n", "every", "after", "p", "times", "once",
        "index", "calls", "fires", "_rng",
    )

    def __init__(
        self,
        site: str,
        action: str,
        arg: "str | float | None" = None,
        *,
        n: "int | None" = None,
        every: "int | None" = None,
        after: int = 0,
        p: "float | None" = None,
        times: "int | None" = None,
        once: bool = False,
        index: int = 0,
        seed: int = 0,
    ):
        if action not in ("raise", "delay", "kill"):
            raise FaultPlanError(f"unknown fault action {action!r}")
        if action == "raise":
            name = str(arg) if arg is not None else "FaultInjected"
            if name not in EXCEPTIONS:
                raise FaultPlanError(
                    f"unknown exception {name!r} for {site}:raise "
                    f"(choose from {', '.join(sorted(EXCEPTIONS))})"
                )
            arg = name
        elif action == "delay":
            try:
                arg = float(arg)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise FaultPlanError(
                    f"delay needs seconds, got {arg!r} for site {site}"
                ) from None
        if p is not None and not 0.0 <= p <= 1.0:
            raise FaultPlanError(f"p must be in [0, 1], got {p}")
        self.site = site
        self.action = action
        self.arg = arg
        self.n = n
        self.every = every
        self.after = int(after)
        self.p = p
        self.times = 1 if once and times is None else times
        self.once = once
        self.index = int(index)
        self.calls = 0
        self.fires = 0
        self._rng = random.Random(f"{seed}:{site}:{index}")

    def should_fire(self) -> bool:
        """Advance this rule's call counter and decide (deterministically)."""
        self.calls += 1
        if self.times is not None and self.fires >= self.times:
            return False
        if self.calls <= self.after:
            return False
        if self.n is not None and self.calls != self.n:
            return False
        if self.every is not None and self.calls % self.every != 0:
            return False
        if self.p is not None and self._rng.random() >= self.p:
            return False
        return True

    def describe(self) -> str:
        mods = []
        for name in ("n", "every", "p", "times"):
            value = getattr(self, name)
            if value is not None:
                mods.append(f"{name}={value}")
        if self.after:
            mods.append(f"after={self.after}")
        if self.once:
            mods.append("once")
        arg = "" if self.arg is None else f"={self.arg}"
        at = f"@{','.join(mods)}" if mods else ""
        return f"{self.site}:{self.action}{arg}{at}"


class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s evaluated at every fault site.

    Thread-safe: daemon worker threads share one plan; the trigger counters
    advance under a lock.  Cross-process sharing goes through the
    environment (each process evaluates its own counters) plus the optional
    ``state`` directory, whose atomic marker files make ``@once`` rules fire
    exactly once across an entire fleet.
    """

    def __init__(
        self,
        rules: "list[FaultRule] | None" = None,
        *,
        seed: int = 0,
        state_dir: "str | Path | None" = None,
    ):
        self.seed = int(seed)
        self.state_dir = Path(state_dir).expanduser() if state_dir else None
        self.rules: "list[FaultRule]" = list(rules or [])
        self._by_site: "dict[str, list[FaultRule]]" = {}
        for rule in self.rules:
            self._by_site.setdefault(rule.site, []).append(rule)
        self._lock = threading.Lock()
        self.injected: "dict[str, int]" = {}

    # ------------------------------------------------------------------ parse

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Build a plan from a ``REPRO_FAULTS``-syntax string."""
        seed = 0
        state_dir: "str | None" = None
        raw_rules: "list[dict]" = []
        for entry in text.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            if entry.startswith("seed="):
                try:
                    seed = int(entry[5:])
                except ValueError:
                    raise FaultPlanError(f"bad seed entry {entry!r}") from None
                continue
            if entry.startswith("state="):
                state_dir = entry[6:]
                continue
            match = _RULE_RE.match(entry)
            if match is None:
                raise FaultPlanError(
                    f"cannot parse fault rule {entry!r} "
                    f"(expected site:action[=arg][@mod,...])"
                )
            spec = {
                "site": match["site"],
                "action": match["action"],
                "arg": match["arg"],
            }
            for mod in (match["mods"] or "").split(","):
                mod = mod.strip()
                if not mod:
                    continue
                if mod == "once":
                    spec["once"] = True
                    continue
                name, _, value = mod.partition("=")
                if name in ("n", "every", "after", "times"):
                    try:
                        spec[name] = int(value)
                    except ValueError:
                        raise FaultPlanError(
                            f"bad integer modifier {mod!r} in {entry!r}"
                        ) from None
                elif name == "p":
                    try:
                        spec[name] = float(value)
                    except ValueError:
                        raise FaultPlanError(
                            f"bad probability {mod!r} in {entry!r}"
                        ) from None
                else:
                    raise FaultPlanError(f"unknown modifier {mod!r} in {entry!r}")
            raw_rules.append(spec)
        rules = [
            FaultRule(index=index, seed=seed, **spec)
            for index, spec in enumerate(raw_rules)
        ]
        return cls(rules, seed=seed, state_dir=state_dir)

    # ------------------------------------------------------------------- fire

    def fire(self, site: str) -> None:
        """Evaluate ``site``'s rules; perform the first action that triggers."""
        rules = self._by_site.get(site)
        if not rules:
            return
        chosen: "FaultRule | None" = None
        with self._lock:
            for rule in rules:
                if rule.should_fire() and self._claim_once(rule):
                    rule.fires += 1
                    self.injected[site] = self.injected.get(site, 0) + 1
                    chosen = rule
                    break
        if chosen is None:
            return
        metrics.incr("resilience.faults_injected")
        metrics.incr(f"resilience.faults.{site}")
        logger.warning(
            "injecting fault at %s (rule %s, call %d, pid %d)",
            site, chosen.describe(), chosen.calls, os.getpid(),
        )
        self._act(chosen)

    def _claim_once(self, rule: FaultRule) -> bool:
        """Atomically claim a ``@once`` rule's fleet-wide marker file."""
        if not rule.once or self.state_dir is None:
            return True
        marker = self.state_dir / f"{rule.site}.{rule.index}.fired"
        try:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False  # another process already fired this rule
        except OSError:
            return True  # unusable state dir: degrade to per-process once
        os.write(fd, f"{os.getpid()} {time.time()}\n".encode())
        os.close(fd)
        return True

    def _act(self, rule: FaultRule) -> None:
        if rule.action == "delay":
            time.sleep(float(rule.arg))  # a hung point, in miniature
            return
        if rule.action == "kill":
            # SIGKILL leaves no chance for cleanup — exactly the failure the
            # lease reaper and the pool watchdog exist for.
            os.kill(os.getpid(), signal.SIGKILL)
            return  # pragma: no cover - unreachable
        raise EXCEPTIONS[str(rule.arg)](f"fault at {rule.site}")

    # ------------------------------------------------------------ bookkeeping

    def fired(self) -> "dict[str, int]":
        """Per-site injected-fault counts for this process."""
        with self._lock:
            return dict(self.injected)

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        if self.state_dir is not None:
            parts.append(f"state={self.state_dir}")
        parts.extend(rule.describe() for rule in self.rules)
        return ";".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"FaultPlan({self.describe()!r})"


# ---------------------------------------------------------------------------
# The process-wide hook
# ---------------------------------------------------------------------------

_PLAN: "FaultPlan | None" = None
_ENV_SEEN: "str | None" = None


def configure_faults(plan: "FaultPlan | str | None") -> "FaultPlan | None":
    """Install (or with ``None`` clear) the process-wide fault plan.

    Accepts a ready :class:`FaultPlan` or a ``REPRO_FAULTS``-syntax string.
    Clearing also forgets any plan previously installed from the
    environment, so the next :func:`fault_point` re-reads ``REPRO_FAULTS``.
    """
    global _PLAN, _ENV_SEEN
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    _PLAN = plan
    _ENV_SEEN = None
    return plan


def active_plan() -> "FaultPlan | None":
    """The currently installed plan (``None``: fault injection off)."""
    return _PLAN


def faults_enabled() -> bool:
    """Whether any fault plan is configured (or waiting in ``REPRO_FAULTS``)."""
    return _PLAN is not None or bool(_env_value())


def reset_process() -> None:
    """Drop inherited plan state so a forked worker re-reads the environment.

    Pool initializers call this: under ``fork`` a worker would otherwise
    inherit the parent's plan object mid-count, making the worker's triggers
    depend on how many calls the *parent* had made.
    """
    global _PLAN, _ENV_SEEN
    _PLAN = None
    _ENV_SEEN = None


def _install_from_env() -> "FaultPlan | None":
    global _PLAN, _ENV_SEEN
    text = _env_value()
    if text == _ENV_SEEN:
        return _PLAN
    _ENV_SEEN = text
    if not text or not text.strip():
        _PLAN = None
        return None
    try:
        _PLAN = FaultPlan.parse(text)
    except FaultPlanError as exc:
        # A typo in REPRO_FAULTS must not take production down: log, run clean.
        logger.error("ignoring unparsable %s: %s", FAULTS_ENV, exc)
        _PLAN = None
        return None
    logger.warning(
        "fault injection active (pid %d): %s", os.getpid(), _PLAN.describe()
    )
    return _PLAN


def fault_point(site: str) -> None:
    """Evaluate the fault plan at ``site`` — a near-free no-op when disabled.

    The disabled path (no plan configured, ``REPRO_FAULTS`` unset) is one
    global read plus one raw environ-dict lookup.  With a plan installed the
    site's rules are evaluated and the first triggered action performed:
    an injected exception raises *from here*, a delay sleeps here, a kill
    terminates the process here.
    """
    plan = _PLAN
    if plan is None:
        if _ENV_DATA is not None:
            if _ENV_DATA.get(_ENV_KEY) is None and _ENV_SEEN is None:
                return
        elif os.environ.get(FAULTS_ENV) is None and _ENV_SEEN is None:
            return
        plan = _install_from_env()
        if plan is None:
            return
    plan.fire(site)
