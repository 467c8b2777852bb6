"""The :class:`Pass` and :class:`PassGroup` model, and the artifact context.

A *pass* is one inspector stage with a declared
:class:`~repro.passes.contracts.Contract`; a *pass group* is an ordered
list of passes plus the artifacts and invariants the driver supplies — a
scheduler is a pass group (pymtl3-style: ``SimpleSim`` is to pymtl3 what
``hdagg`` is to this registry).  Groups are plain data: they can be
constructed ill-formed on purpose, which is exactly what
:func:`repro.statan.verify_pipeline` exists to reject before execution.

Pass implementations follow two hard rules (both machine-checked):

* **No input mutation** — a pass reads artifacts from the
  :class:`PassContext` and returns *new* products; it never mutates what
  it read (``statan`` lint rule L008 enforces the idiom, and the
  ``input-immutable`` invariant documents it in contracts).
* **Honest products** — the mapping returned by ``run`` must carry
  exactly the artifacts the contract declares under ``produces``; the
  executor refuses anything else at runtime, the verifier at plan time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .contracts import Contract

__all__ = ["Pass", "PassGroup", "PassContext", "MissingArtifactError"]

#: incremental-repair policies a pass can declare (see
#: :func:`repro.passes.incremental.plan_repair`)
REPAIR_POLICIES = ("recompute", "splice", "replay")


class MissingArtifactError(KeyError):
    """A pass (or caller) asked the context for an artifact that is absent."""

    def __init__(self, name: str, available: Tuple[str, ...]) -> None:
        super().__init__(name)
        self.artifact = name
        self.available = available

    def __str__(self) -> str:
        return (
            f"artifact {self.artifact!r} is not in the context "
            f"(available: {sorted(self.available)})"
        )


class PassContext:
    """Artifact store threaded through one pipeline execution.

    Holds the named artifacts plus the runtime collaborators a pass may
    need (the stage timer, the backend spec, the pipeline options).  The
    context is the *only* channel between passes — passes never call each
    other directly.
    """

    def __init__(
        self,
        artifacts: Optional[Mapping[str, Any]] = None,
        *,
        timer: Any = None,
        spec: Any = None,
        options: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self._artifacts: Dict[str, Any] = dict(artifacts or {})
        self.timer = timer
        self.spec = spec
        self.options: Dict[str, Any] = dict(options or {})

    def has(self, name: str) -> bool:
        return name in self._artifacts

    def get(self, name: str) -> Any:
        try:
            return self._artifacts[name]
        except KeyError:
            raise MissingArtifactError(name, tuple(self._artifacts)) from None

    __getitem__ = get

    def put(self, name: str, value: Any) -> None:
        self._artifacts[name] = value

    def names(self) -> Tuple[str, ...]:
        return tuple(self._artifacts)


@dataclass(frozen=True)
class Pass:
    """One inspector stage with its contract and instrumentation metadata.

    ``run`` takes the context and returns the produced artifacts as a
    mapping (``{"ReducedDAG": ...}``); the executor stores them.  The
    observability / resilience metadata mirrors the idioms the inline
    inspector used: ``timer_label`` names the :class:`StageTimer` stage,
    ``span`` the ``inspect/<stage>`` span, ``fault_label`` the
    ``inspector.stage`` fault-injection label.  ``stage`` binds the pass
    to the backend registry (tier selection + the differential oracle);
    ``tiers`` is the set of tiers the pass declares it can execute under.
    ``repair`` is the incremental policy: ``recompute`` (cheap, re-run
    exactly), ``splice`` (diff-driven partial recomputation), or
    ``replay`` (reuse verbatim when inputs are clean).
    """

    name: str
    contract: Contract
    run: Callable[[PassContext], Mapping[str, Any]]
    stage: Optional[str] = None
    tiers: Tuple[str, ...] = field(default=())
    timer_label: Optional[str] = None
    span: Optional[str] = None
    span_attrs: Optional[Callable[[PassContext], Dict[str, Any]]] = None
    fault_label: Optional[str] = None
    repair: str = "recompute"

    def __post_init__(self) -> None:
        if self.repair not in REPAIR_POLICIES:
            raise ValueError(
                f"unknown repair policy {self.repair!r}; expected one of {REPAIR_POLICIES}"
            )


@dataclass(frozen=True)
class PassGroup:
    """An ordered pass list plus the driver's side of the contract.

    ``inputs`` are the artifacts the driver seeds the context with;
    ``assumes`` the invariants the driver guarantees on them (kernels
    build id-topological, acyclic DAGs); ``outputs`` what the group must
    have produced when it finishes.  ``options`` are the keyword options
    the group takes, with their defaults: ``epsilon`` and ``backend``
    seed the ``Epsilon`` / ``Backend`` artifacts, every other option
    reaches the passes as ``ctx.options``.  Groups are registered per
    scheduler in :mod:`repro.passes.registry`.
    """

    name: str
    passes: Tuple[Pass, ...]
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...] = ("Schedule",)
    assumes: Tuple[str, ...] = ()
    description: str = ""
    options: Mapping[str, Any] = field(default_factory=dict)

    def pass_named(self, name: str) -> Pass:
        for p in self.passes:
            if p.name == name:
                return p
        raise KeyError(f"no pass named {name!r} in group {self.name!r}")
