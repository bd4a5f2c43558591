"""Each ``verify`` family can fail: inject one fault, expect ``pass: false``.

A check that cannot fail passes on broken code as well as on working code.
Each test here patches one input of a family so that its inequality is
violated, runs the family at the default seed, and asserts that exactly
the records at the expected ``n`` fail, and that the family's other records
are untouched.
"""

from invclt import bounds, checks, coupling, rng as rngmod


def run_family(name: str) -> list[dict]:
    return checks.CHECKS[name](rngmod.DEFAULT_SEED)


def test_bound_chain_fails_without_a_coupling_gap(monkeypatch):
    # a zero gap breaks only the L1 link l1 <= 2 E|W - W*|: every other term
    # of the violation stays below zero, so the record fails through it alone
    monkeypatch.setattr(coupling, "exact_gap", lambda D: 0.0)
    records = run_family("bound_chain")
    assert [(r["n"], r["pass"]) for r in records] == [(10, False), (12, False)]
    assert all(r["max_abs_error"] == r["l1"] > 0.0 for r in records)


def test_truncation_collision_fails_above_its_bound(monkeypatch):
    # an exact collision probability just above the truncation's bound; the
    # family's truncation_inequalities records do not read it and still pass
    monkeypatch.setattr(
        bounds,
        "exact_collision_probability",
        lambda D: bounds.truncate(D).collision_prob_bound + 1e-9,
    )
    records = run_family("truncation_inequalities")
    collision = [r for r in records if r["check"] == "truncation_collision"]
    assert [(r["n"], r["pass"]) for r in collision] == [(10, False), (12, False)]
    assert all(r["max_abs_error"] > 0.0 for r in collision)
    assert all(r["pass"] for r in records if r["check"] == "truncation_inequalities")
