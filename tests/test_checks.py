"""The property suites behind `check` at the smallest truncations and
windows the command line accepts."""

import pytest

from helpers import reference_comult3
from lambdaops.checks import _comult3_image, run_suite


@pytest.mark.parametrize("trunc", [1, 2, 3])
def test_compose_suite_passes_at_small_truncations(trunc):
    rep = run_suite("compose", trunc, 16)
    assert rep["pass"], [p for p in rep["properties"] if not p["pass"]]


@pytest.mark.parametrize("window", [1, 2])
def test_looping_suite_passes_at_small_windows(window):
    for trunc in (1, 3, 5):
        rep = run_suite("looping", trunc, window)
        assert rep["pass"], [p for p in rep["properties"] if not p["pass"]]


def test_looping_axiom_2_counts_only_pairs_inside_the_window():
    def axiom_2(window):
        props = run_suite("looping", 5, window)["properties"]
        return next(p["instances"] for p in props if p["id"] == "axiom-2")

    assert 0 < axiom_2(1) < axiom_2(2) < axiom_2(3) == axiom_2(16) == 80


@pytest.mark.parametrize("trunc", range(1, 7))
def test_compose_suite_reports_at_every_small_window(trunc):
    for window in range(1, 7):
        for seed in range(3):
            rep = run_suite("compose", trunc, window, seed)
            assert rep["config"] == {"trunc": trunc, "window": window, "seed": seed}
            assert rep["pass"], (window, seed, rep["properties"])
            assert [p["id"] for p in rep["properties"]] == [
                "compose-vs-action", "compose-monoid-laws", "counit-composition",
                "coproducts-vs-action"]


def test_comult_coassociativity_has_a_third_route(monkeypatch):
    # the three-leg co-multiplication built straight from the triple
    # universal polynomial is a route of its own: doubling its image of L2
    # fails co-multiplication coassociativity and nothing else
    from lambdaops import checks

    image = checks._comult3_image
    monkeypatch.setattr(checks, "_comult3_image", lambda k: (2 if k == 2 else 1) * image(k))
    rep = run_suite("biring", 4, 16)
    assert [p["id"] for p in rep["properties"] if not p["pass"]] == ["comult-coassociative"]


def test_comult3_image_matches_the_reference_recursion():
    for k in range(1, 9):
        assert _comult3_image(k) == reference_comult3(k), k


def _double_monomial(monkeypatch, target):
    """Double the value of the monomial `target` wherever the monomial step
    of IntPoly.evaluate builds it, memo included."""
    from lambdaops import intpoly
    from lambdaops.intpoly import IntPoly
    from lambdaops.setzz import COIFamily, coi_add

    step = intpoly._monomial_value

    def doubled(memo, m, assign, times):
        value = step(memo, m, assign, times)
        if IntPoly._trusted({m: 1}) == target:  # m is a packed monomial
            value = memo[m] = coi_add(value, value) if isinstance(value, COIFamily) else 2 * value
        return value

    monkeypatch.setattr(intpoly, "_monomial_value", doubled)


def test_a_wrong_monomial_value_fails_compose_and_models(monkeypatch):
    # the memo of IntPoly.evaluate cannot hide a wrong evaluation: doubling
    # the value of L1*L3 fails the action oracle of `check compose --trunc 6`
    # and the axioms of `check models`
    from lambdaops.intpoly import IntPoly

    for name, trunc in (("compose", 6), ("models", 5)):
        assert run_suite(name, trunc, 16)["pass"], name
    _double_monomial(monkeypatch, IntPoly.var("L", 1) * IntPoly.var("L", 3))
    failed = {name: [p["id"] for p in run_suite(name, trunc, 16)["properties"] if not p["pass"]]
              for name, trunc in (("compose", 6), ("models", 5))}
    assert "compose-vs-action" in failed["compose"]
    assert failed["models"] == ["lambda-ring-axioms"]


def test_a_wrong_monomial_value_fails_looping_axiom_2(monkeypatch):
    # axiom 2 evaluates the left legs of the co-multiplication entries through
    # the memo of alpha - eps(alpha): doubling the value of T1_1*T1_2 there
    # fails that axiom and no other
    from lambdaops.intpoly import IntPoly

    assert run_suite("looping", 5, 16)["pass"]
    _double_monomial(monkeypatch, IntPoly.var("T1", 1) * IntPoly.var("T1", 2))
    props = run_suite("looping", 5, 16)["properties"]
    assert [p["id"] for p in props if not p["pass"]] == ["axiom-2"]
