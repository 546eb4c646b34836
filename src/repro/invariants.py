"""The invariant registry behind every ``--self-check``.

An invariant is a zero-argument function that raises
``AssertionError(detail)`` when a cross-layer contract breaks -- for
example that the bucketed timer queue replays a full kernel-on-SoC
workload bit for bit like the reference heap.  Each subsystem CLI
module listed in :data:`TIERS` exposes its invariants as a plain
``INVARIANTS`` list; contracts that a tier-1 test already pins live
only in that test, never here as well.

Two callers run the registry: ``tests/test_invariants.py`` (one pytest
id per invariant, carrying its tier's marker, so tier-1 runs each
invariant exactly once) and :func:`run`, which backs
``repro-<tier> --self-check`` and ``repro-verify --skip-tier1/--only``.
"""

from __future__ import annotations

import importlib
import sys
import traceback
from typing import Callable, Iterable, List, Optional, Tuple

__all__ = ["TIERS", "registry", "require", "run"]

Invariant = Callable[[], None]

#: Tier -> module exposing ``INVARIANTS``, in run order.
TIERS = {
    "lint": "repro.lint.cli",
    "perf": "repro.perf.cli",
    "obs": "repro.obs.cli",
    "faults": "repro.faults.cli",
}


def require(ok: object, detail: str) -> None:
    """Raise ``AssertionError(detail)`` unless ``ok``.

    Invariants use this rather than ``assert``, which ``python -O``
    strips.
    """
    if not ok:
        raise AssertionError(detail)


def registry(tiers: Optional[Iterable[str]] = None) -> List[Tuple[str, Invariant]]:
    """``(tier, invariant)`` pairs for ``tiers`` (default: all), in order."""
    selected = list(TIERS) if tiers is None else list(tiers)
    unknown = [tier for tier in selected if tier not in TIERS]
    if unknown:
        raise ValueError(f"unknown tier(s): {', '.join(unknown)}")
    return [
        (tier, invariant)
        for tier in selected
        for invariant in importlib.import_module(TIERS[tier]).INVARIANTS
    ]


def _detail(exc: Exception) -> str:
    if isinstance(exc, AssertionError):
        return str(exc)
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} ({frame.filename}:{frame.lineno})"


def run(tiers: Optional[Iterable[str]] = None, out=None) -> int:
    """Run every invariant of ``tiers``; 0 when all hold, else 1.

    Prints ``ok   <name>`` or ``FAIL <name>: <detail>`` per invariant
    and a closing ``self-check: PASS|FAIL (n failure(s))`` line.  An
    invariant that raises counts as a failure and does not stop the
    ones after it.
    """
    out = out or sys.stdout
    failures = 0
    for _, invariant in registry(tiers):
        try:
            invariant()
        except Exception as exc:  # report it and keep checking the rest
            failures += 1
            print(f"FAIL {invariant.__name__}: {_detail(exc)}", file=out)
        else:
            print(f"ok   {invariant.__name__}", file=out)
    print(
        f"self-check: {'PASS' if not failures else 'FAIL'} "
        f"({failures} failure(s))",
        file=out,
    )
    return 1 if failures else 0
