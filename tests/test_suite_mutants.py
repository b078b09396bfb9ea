"""Every suite check can fail: each mutant below breaks one piece of the
library, and every check it names must then fail at 4 samples.

A check that no defect can move shows nothing, so each mutant names the
checks that catch it.  Mutants are applied in-process with ``monkeypatch``,
under every name the library and the suites bind them to.
"""

import pytest

from gcalc import manifold, suites
from gcalc.jets import contract


def _one_sided_bracket(a, b):
    """a^l d_l b^k, missing the - b^l d_l a^k term."""
    return contract("l,kl->k", a, b.partials())


def _statuses(suite):
    report = suites.run_checks(suite, samples=4)
    return {row["name"]: row["status"] for row in report["checks"]}


MUTANTS = [
    ("one_sided_bracket", [(manifold, "bracket", _one_sided_bracket),
                           (suites, "bracket", _one_sided_bracket)],
     "frames", ["frames.lie_jacobi", "frames.lie_antisymmetric",
                "frames.lie_scalar_multipliers"]),
]


@pytest.mark.parametrize("patches, suite, caught",
                         [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_mutant_is_caught(monkeypatch, patches, suite, caught):
    assert all(s == "pass" for s in _statuses(suite).values())
    for module, name, mutant in patches:
        monkeypatch.setattr(module, name, mutant)
    statuses = _statuses(suite)
    for name in caught:
        assert statuses[name] == "fail", name
