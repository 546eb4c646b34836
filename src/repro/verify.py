"""``repro-verify``: one command that runs every repo health gate.

The repo's correctness story lives in the tier-1 pytest suite
(``tests/``, fast by construction).  It also runs the invariant
registry (:mod:`repro.invariants`) -- the cross-layer determinism
sentinels behind each subsystem CLI's ``--self-check`` -- once, as
``tests/test_invariants.py``.  So the default mode is just tier-1;
the registry runs directly only when tier-1 is skipped::

    repro-verify                  # tier-1 pytest (includes the registry)
    repro-verify --skip-tier1     # the invariant registry only (seconds)
    repro-verify --only perf obs  # a subset of the registry tiers
    repro-verify --list           # show what would run

The tier-1 suite runs as a ``python -m pytest`` subprocess with
``PYTHONPATH=src`` prepended, matching the repo's documented
invocation; the registry runs in-process.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from typing import List, Optional, Sequence

from repro import __version__, invariants

__all__ = ["run_tier1", "main"]


def run_tier1(pytest_args: Optional[Sequence[str]] = None,
              repo_root: Optional[str] = None) -> int:
    """The tier-1 pytest suite as a subprocess; returns its exit code.

    A subprocess (not ``pytest.main``) keeps the suite's imports,
    fixtures and monkeypatching out of this process.
    """
    root = repo_root or os.getcwd()
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else src
    )
    command = [sys.executable, "-m", "pytest", "-q"]
    command.extend(pytest_args or [])
    completed = subprocess.run(command, cwd=root, env=env)
    return completed.returncode


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description="run the tier-1 test suite (which runs every "
        "registry invariant once); exit non-zero if it fails",
    )
    parser.add_argument("--skip-tier1", action="store_true",
                        help="run only the invariant registry")
    parser.add_argument("--only", nargs="+", choices=list(invariants.TIERS),
                        metavar="CHECK", default=None,
                        help=f"run only these registry tiers "
                        f"({', '.join(invariants.TIERS)})")
    parser.add_argument("--list", action="store_true",
                        help="list the gates that would run and exit")
    parser.add_argument("--pytest-args", nargs=argparse.REMAINDER,
                        default=None,
                        help="everything after this goes to pytest "
                        "verbatim (e.g. --pytest-args -x -k obs)")
    args = parser.parse_args(argv)

    tier1 = not (args.skip_tier1 or args.only)
    tiers = None if tier1 else list(args.only or invariants.TIERS)
    if args.list:
        if tier1:
            print("tier1   : PYTHONPATH=src python -m pytest -q "
                  "(runs every invariant below once)")
        for tier in tiers or invariants.TIERS:
            names = [fn.__name__ for _, fn in invariants.registry([tier])]
            print(f"{tier:<8}: {', '.join(names) or '(no invariants)'}")
        return 0

    started = time.perf_counter()
    if tier1:
        name = "tier1 (pytest)"
        code = run_tier1(pytest_args=args.pytest_args)
    else:
        name = f"invariants ({', '.join(tiers)})"
        code = invariants.run(tiers)
    elapsed = time.perf_counter() - started

    print(f"repro-verify {__version__}")
    verdict = "PASS" if code == 0 else f"FAIL (exit {code})"
    print(f"  {name:<24} {elapsed:7.1f} s  {verdict}")
    if code != 0:
        print(f"verify: FAIL ({name} failed)")
        return 1
    print("verify: PASS")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
