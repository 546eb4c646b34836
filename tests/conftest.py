"""Shared fixtures."""

import importlib

import pytest

from repro import invariants


@pytest.fixture
def fake_registry(monkeypatch):
    """Swap every tier's ``INVARIANTS`` for one passing fake named
    ``<tier>_ok``, so wiring tests never run a real invariant.

    Returns ``(calls, install)``: the names run so far, in order, and
    ``install(tier, name=error, ...)``, which puts fakes on one tier in
    keyword order; each raises its ``error`` unless that is ``None``.
    """
    calls = []

    def fake(name, error):
        def invariant():
            calls.append(name)
            if error is not None:
                raise error
        invariant.__name__ = name
        return invariant

    def install(tier, **outcomes):
        module = importlib.import_module(invariants.TIERS[tier])
        monkeypatch.setattr(module, "INVARIANTS",
                            [fake(name, error) for name, error in outcomes.items()])

    for tier in invariants.TIERS:
        install(tier, **{f"{tier}_ok": None})
    return calls, install
