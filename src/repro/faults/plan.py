"""Deterministic, seed-free fault plans and their injection hooks.

A :class:`FaultPlan` is a declarative list of :class:`FaultSpec` entries
— *kill the worker at its K-th cell*, *corrupt the next trace artifact
written*, *refuse the next two client connections*, *delay a site* —
plus a token directory that makes firing decisions deterministic
**across processes**: each spec may fire at most ``count`` times total,
claimed by atomically creating token files, so a retried worker that
re-arms the same site does not die forever.

Plans propagate two ways:

- :meth:`FaultPlan.install` — process-global, for in-process sites like
  the service client's connect path.
- :meth:`FaultPlan.activate` — via the ``REPRO_FAULT_PLAN`` environment
  variable, which the caller reads when it hands work to a worker
  process (:func:`adopt_plan` on the worker's side).  The
  :meth:`FaultPlan.activated` context manager does both and always
  cleans up.

Production code never imports this module's hooks conditionally: the
hooks (:func:`fault_point`, :func:`corrupt_bytes`) are no-ops costing a
dict lookup when no plan is active, which is always outside a chaos run.

>>> from repro.faults.plan import FaultPlan, FaultSpec
>>> plan = FaultPlan(faults=(FaultSpec(kind="refuse", site="client-connect"),),
...                  token_dir="/tmp/tokens")
>>> FaultPlan.from_json(plan.to_json()) == plan
True
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro import obs

#: Environment variable carrying the active plan into pool workers.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Fault kinds: kill the process, corrupt a payload being written,
#: sleep at a site, refuse (raise ConnectionRefusedError) at a site.
FAULT_KINDS = ("kill", "corrupt", "delay", "refuse")

#: Exit code of fault-killed workers (recognizable in core-dump triage).
KILL_EXIT_CODE = 23

#: Per-process arming counters, keyed by site name.
_SITE_COUNTS: dict[str, int] = {}

#: The plan installed in this process (wins over the environment).
_INSTALLED: "FaultPlan | None" = None

#: Cache of the last environment plan parse: (raw json, plan).
_ENV_CACHE: tuple[str, "FaultPlan"] | None = None


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault.

    Args:
        kind: One of :data:`FAULT_KINDS`.
        site: Injection-site name (e.g. ``"worker-cell"``,
            ``"cache-write-trace"``, ``"client-connect"``).
        at: Fire from the ``at``-th arming call at the site onward
            (1-based, per process) — "kill the worker at cell K".
        count: Total firings allowed across *all* processes (claimed
            through the plan's token directory).
        delay_s: Sleep duration for ``kind="delay"``.
    """

    kind: str
    site: str
    at: int = 1
    count: int = 1
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if not self.site:
            raise ValueError("site must be a non-empty string")
        if self.at < 1:
            raise ValueError(f"at is 1-based, got {self.at}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s cannot be negative, got {self.delay_s}")

    @property
    def token_stem(self) -> str:
        """Filename stem identifying this spec's firing tokens."""
        return f"{self.kind}-{self.site}-at{self.at}"


@dataclass(frozen=True)
class FaultPlan:
    """A set of faults plus the shared token directory that caps them."""

    faults: tuple[FaultSpec, ...] = ()
    token_dir: str = ""
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.token_dir:
            raise ValueError("a FaultPlan needs a token_dir for cross-process state")
        # Absolutize eagerly: the plan travels to workers through the
        # environment, and a relative token_dir would resolve against
        # *their* CWDs — distributed workers launched from other
        # directories (or hosts) would then each keep a private ledger
        # and every one of them would fire a count=1 fault.
        object.__setattr__(self, "token_dir", os.path.abspath(self.token_dir))
        object.__setattr__(self, "faults", tuple(self.faults))

    @classmethod
    def for_cache_root(
        cls, cache_root: "str | os.PathLike[str]",
        faults: tuple[FaultSpec, ...] = (), seed: int = 0,
    ) -> "FaultPlan":
        """A plan whose firing-cap tokens live under the shared cache.

        The cache root is the one directory every worker in a
        distributed sweep can already see, so rooting the token ledger
        there (``<cache>/fault-tokens/``) makes cross-process firing
        caps hold regardless of each worker's launch directory or host.
        """
        return cls(
            faults=faults,
            token_dir=str(Path(cache_root) / "fault-tokens"),
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Compact JSON for the environment hand-off."""
        return json.dumps({
            "seed": self.seed,
            "token_dir": self.token_dir,
            "faults": [
                {"kind": f.kind, "site": f.site, "at": f.at,
                 "count": f.count, "delay_s": f.delay_s}
                for f in self.faults
            ],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "FaultPlan":
        data = json.loads(payload)
        return cls(
            faults=tuple(FaultSpec(**entry) for entry in data["faults"]),
            token_dir=data["token_dir"],
            seed=int(data.get("seed", 0)),
        )

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Make this plan active for the current process only."""
        global _INSTALLED
        _INSTALLED = self

    def uninstall(self) -> None:
        global _INSTALLED
        if _INSTALLED is self:
            _INSTALLED = None

    def activate(self) -> None:
        """Publish the plan to the environment, where worker launches read it."""
        os.environ[FAULT_PLAN_ENV] = self.to_json()

    def deactivate(self) -> None:
        if os.environ.get(FAULT_PLAN_ENV) == self.to_json():
            del os.environ[FAULT_PLAN_ENV]

    @contextmanager
    def activated(self):
        """Install in-process *and* publish to the environment; always
        cleans up both and this process's site counters on exit."""
        Path(self.token_dir).mkdir(parents=True, exist_ok=True)
        self.install()
        self.activate()
        try:
            yield self
        finally:
            self.uninstall()
            self.deactivate()
            reset_site_counts()

    # ------------------------------------------------------------------
    # Firing bookkeeping
    # ------------------------------------------------------------------

    def claim(self, spec: FaultSpec) -> bool:
        """Atomically claim one of ``spec.count`` firing slots.

        Token files in ``token_dir`` are the cross-process ledger:
        ``O_CREAT | O_EXCL`` creation either wins a slot or loses the
        race, so a kill fault with ``count=1`` fires in exactly one
        worker ever — the retried batch runs clean.
        """
        directory = Path(self.token_dir)
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError:
            return False
        for slot in range(spec.count):
            token = directory / f"{spec.token_stem}.{slot}"
            try:
                fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return False
            os.close(fd)
            return True
        return False

    def fired_count(self, spec: FaultSpec) -> int:
        """How many of ``spec``'s slots have been claimed so far."""
        directory = Path(self.token_dir)
        return sum(
            1 for slot in range(spec.count)
            if (directory / f"{spec.token_stem}.{slot}").exists()
        )


def active_plan() -> FaultPlan | None:
    """The plan governing this process, if any.

    The in-process installed plan wins; otherwise the environment is
    consulted (the worker path).  Returns None — the production fast
    path — when neither is set.
    """
    global _ENV_CACHE
    if _INSTALLED is not None:
        return _INSTALLED
    raw = os.environ.get(FAULT_PLAN_ENV)
    if not raw:
        return None
    if _ENV_CACHE is None or _ENV_CACHE[0] != raw:
        try:
            _ENV_CACHE = (raw, FaultPlan.from_json(raw))
        except (ValueError, KeyError, TypeError):
            return None
    return _ENV_CACHE[1]


def reset_site_counts() -> None:
    """Drop this process's arming counters (chaos-run isolation)."""
    _SITE_COUNTS.clear()


def adopt_plan(raw: str | None) -> None:
    """Make ``raw`` — a plan's JSON, or None for no plan — the plan this
    process reads from its environment.

    For workers that do not see their caller's environment: a forkserver
    child, and a pool worker that outlives one run.  When the plan
    changes, this process's arming counters restart, so "kill at cell K"
    counts from the plan's activation.
    """
    if os.environ.get(FAULT_PLAN_ENV) == raw:
        return
    if raw is None:
        del os.environ[FAULT_PLAN_ENV]
    else:
        os.environ[FAULT_PLAN_ENV] = raw
    reset_site_counts()


def _arm(site: str) -> int:
    _SITE_COUNTS[site] = _SITE_COUNTS.get(site, 0) + 1
    return _SITE_COUNTS[site]


def fault_point(site: str) -> None:
    """Arm an injection site; fires any matching kill/delay/refuse fault.

    No-op without an active plan.  ``kill`` exits the process abruptly
    (``os._exit`` — no cleanup, exactly like a segfault); ``delay``
    sleeps; ``refuse`` raises :class:`ConnectionRefusedError`.
    """
    plan = active_plan()
    if plan is None:
        return
    armed = _arm(site)
    for spec in plan.faults:
        if spec.site != site or spec.kind == "corrupt" or armed < spec.at:
            continue
        if not plan.claim(spec):
            continue
        obs.bump("faults_injected")
        if spec.kind == "kill":
            os._exit(KILL_EXIT_CODE)
        elif spec.kind == "delay":
            time.sleep(spec.delay_s)
        elif spec.kind == "refuse":
            raise ConnectionRefusedError(f"fault injected: connection refused at {site}")


def corrupt_bytes(site: str, payload: bytes) -> bytes:
    """Arm a write site; returns a torn payload if a corrupt fault fires.

    The corruption model is a torn write: the first half of the payload
    only — what a crash between ``write`` and ``fsync`` could persist.
    """
    plan = active_plan()
    if plan is None:
        return payload
    armed = _arm(site)
    for spec in plan.faults:
        if spec.site != site or spec.kind != "corrupt" or armed < spec.at:
            continue
        if not plan.claim(spec):
            continue
        obs.bump("faults_injected")
        return payload[: len(payload) // 2]
    return payload
