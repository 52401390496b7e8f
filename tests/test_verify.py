import inspect
import json

import numpy as np
import pytest

from csdpp.linalg import project_capped_simplex
from csdpp.online_pca import CappedMsgState
from csdpp.regressor import RidgeAccumulator
from csdpp.verify import MUTANTS, SUITES, RequestError, grid_projection_oracle, run_suite, run_suites

# trimmed trial counts: enough signal for the defect injectors, quick in CI
REDUCED = {
    "lemma1": dict(trials=20, draws=5),
    "lemma3": dict(random_trials=1500),
    "sherman": dict(d=8, k=5, t=80, projections=5),
    "projection": dict(instances=25),
    "bounds": dict(trials=1500),
    "regret": dict(t=800),
    "tracker": dict(trials=8, steps=20),
    "parse": dict(corpora=25),
}

# the tracker's parts that its fast-path defects make differ: the unchecked step drifts, the public update still matches
TRACKER_PARTS = {"reassociated-eta": ["unchecked-q", "unchecked-sigma"], "reversed-draw": ["basis"]}


class TestSuitesPass:
    @pytest.mark.parametrize("name", ["lemma1", "lemma3", "sherman", "projection", "bounds", "tracker", "parse"])
    def test_clean_suite_passes(self, name):
        report = run_suite(name, **REDUCED[name])
        assert report.passed, report.to_dict()
        assert all(c["passed"] for c in report.checks)

    def test_regret_suite_passes_at_default_horizon(self):
        report = run_suite("regret")
        assert report.passed, report.to_dict()
        names = [c["name"] for c in report.checks]
        assert names == ["split-agreement", "rate-decay", "budget"]

    def test_reports_are_json_serializable(self):
        report = run_suite("projection", instances=5)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["suite"] == "projection"
        assert payload["passed"] is True


class TestMutantsFail:
    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_injected_defect_is_caught(self, mutant):
        entry = MUTANTS[mutant]
        reduced = REDUCED[entry.suite]
        if entry.breaks and entry.suite == "lemma3":  # beside the costs it cannot change
            reduced = dict(random_trials=50, cost_names=[*sorted(entry.blind), "f1"])
        report = run_suite(entry.suite, mutant=mutant, **reduced)
        failed = {c["name"] for c in report.checks if not c["passed"]}
        assert not report.passed, f"suite {entry.suite} missed {mutant}"
        assert not {name for name in failed if name.rsplit("-", 1)[-1] in entry.blind}
        if entry.breaks:  # its bit check, and none of the oracle checks
            assert entry.breaks.format(cost="f1") in failed
            assert not {name for name in failed if name.startswith(("decomposition-", "grid-", "dense-"))}
        if mutant in TRACKER_PARTS:
            assert {c["name"]: c for c in report.checks}["checked-agreement"]["witness"]["parts"] == TRACKER_PARTS[mutant]

    def test_static_context_breaks_decomposition_and_walk_agreement(self):
        clean = run_suite("lemma3", random_trials=50, cost_names=["f1"])
        assert {c["name"]: c["passed"] for c in clean.checks} == {
            "decomposition-f1": True, "walk-agreement-f1": True, "condition-f1": True
        }
        assert clean.checks[1]["witness"] == {"triples": 6564 + 1}  # every order at K <= 4, one at K <= 64
        mutant = run_suite("lemma3", random_trials=50, cost_names=["f1"], mutant="static-context")
        checks = {c["name"]: c for c in mutant.checks}
        assert not checks["decomposition-f1"]["passed"] and not checks["walk-agreement-f1"]["passed"]
        assert set(checks["walk-agreement-f1"]["witness"]) == {"triples", "k", "y", "yhat", "order"}

    def test_peek_ignoring_pending_panel_breaks_batch_equivalence(self, monkeypatch):
        def stale_peek(self, x):  # the inverse as of the last flush only
            ainv_x = self.a_inv @ x
            return ainv_x, float(x @ ainv_x)

        monkeypatch.setattr(RidgeAccumulator, "peek", stale_peek)
        report = run_suite("sherman", **REDUCED["sherman"])
        checks = {c["name"]: c["passed"] for c in report.checks}
        assert not report.passed and not checks["batch-equivalence"]

    def test_sampler_dropping_the_next_row_breaks_checked_agreement(self, monkeypatch):
        def drop_next_row(self, rng):
            probs = self.removal_probabilities()
            u = float(rng.random()) * float(probs.sum())
            drop = int(probs.cumsum().searchsorted(u, "right")) + 1
            return np.delete(self.q, min(drop, self.m), axis=0)

        clean = run_suite("tracker", **REDUCED["tracker"])
        assert {c["name"]: c["passed"] for c in clean.checks}["checked-agreement"]
        monkeypatch.setattr(CappedMsgState, "sample_projection", drop_next_row)
        report = run_suite("tracker", **REDUCED["tracker"])
        checks = {c["name"]: c for c in report.checks}
        assert not report.passed and not checks["checked-agreement"]["passed"]
        assert checks["checked-agreement"]["witness"]["parts"] == ["basis"]
        assert checks["dense-agreement"]["passed"]  # only the oracle replay sees a wrong draw

    @pytest.mark.filterwarnings("error")
    def test_float_index_breaks_refusal_agreement_alone(self):
        clean = run_suite("parse", **REDUCED["parse"])
        assert [(c["name"], c["passed"]) for c in clean.checks] == [("bulk-agreement", True),
                                                                    ("refusal-agreement", True)]
        report = run_suite("parse", mutant="float-index", **REDUCED["parse"])
        failed = {c["name"]: c["witness"] for c in report.checks if not c["passed"]}
        assert list(failed) == ["refusal-agreement"]  # the clean corpora write digit indices only
        assert failed["refusal-agreement"]["lines"].endswith(".0:1'")  # the line checker names the bad token

    def test_swapped_walk_free_breaks_walk_agreement_under_rank_alone(self):
        report = run_suite("lemma3", random_trials=50, cost_names=["hamming", "rank"], mutant="swapped-walk-free")
        failed = {c["name"] for c in report.checks if not c["passed"]}
        assert failed == {"walk-agreement-rank"}  # hamming's two entries are equal

    def test_blind_costs(self):
        assert MUTANTS["static-context"].blind == MUTANTS["native-walk"].blind == {"hamming", "rank"}
        assert MUTANTS["swapped-walk-free"].blind == {"hamming"}
        assert all(not entry.blind for entry in MUTANTS.values() if entry.suite != "lemma3")

    def test_unknown_mutant_is_refused(self):
        with pytest.raises(ValueError, match="unknown mutant 'not-a-real-defect'; available: "):
            run_suite("projection", instances=5, mutant="not-a-real-defect")

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_another_suites_mutant_is_refused(self, mutant):
        own = MUTANTS[mutant].suite
        other = next(name for name in sorted(SUITES) if name != own)
        with pytest.raises(ValueError, match=f"mutant '{mutant}' belongs to suite '{own}', not '{other}'"):
            run_suite(other, mutant=mutant)


class TestRunner:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("lemma99")

    def test_inapplicable_kwargs_are_a_type_error(self):
        with pytest.raises(TypeError, match="random_trials"):
            run_suite("projection", instances=5, random_trials=7, d=3)

    def test_none_kwargs_are_passed_through(self):
        with pytest.raises(TypeError):
            run_suite("projection", instances=None)

    def test_run_suites_ordering(self):
        reports = run_suites(["projection", "lemma1"], trials=5)
        assert [r.name for r in reports] == ["projection", "lemma1"]
        assert [r.params["instances" if r.name == "projection" else "trials"] for r in reports] == [5, 5]
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize(
        "names, kwargs, message",
        [
            (["lemma99"], {}, "unknown suite 'lemma99'; available: "),
            (["projection"], {"mutant": "nearest-brekpoint"}, "unknown mutant 'nearest-brekpoint'; available: "),
            (["projection"], {"mutant": "skip-residual"},
             "mutant 'skip-residual' belongs to suite 'tracker', which is not selected"),
            (["lemma3"], {"mutant": "static-context", "costs": ["rank"]},
             "mutant 'static-context' cannot change the weights of rank; add a --cost it can change: accuracy, f1"),
            (["lemma3"], {"costs": ["nope"]}, "unknown cost 'nope'; available: ['accuracy', 'f1', 'hamming', 'rank']"),
            (["lemma1"], {"trials": 0}, "--trials must be >= 1, got 0"),
            (["projection"], {"seed": -1}, "--seed must be >= 0, got -1"),
            (["projection", "projection"], {}, "suite 'projection' is given twice; give each once"),
            (["lemma3"], {"costs": ["rank", "rank"]}, "cost 'rank' is given twice; give each once"),
            (["bounds"], {"costs": ["rank"]}, "--cost restricts suite lemma3, which is not selected"),
        ],
    )
    def test_run_suites_refuses(self, names, kwargs, message):
        with pytest.raises(RequestError) as exc:
            run_suites(names, **kwargs)
        assert str(exc.value).startswith(message) and isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("name", sorted(set(SUITES) - {"regret"}))
    def test_one_trial_count_sets_each_count_of_a_suite(self, name):
        counts = SUITES[name].counts
        (report,) = run_suites([name], trials=2, costs=["rank"] if name == "lemma3" else None)
        assert counts and {p: report.params[p] for p in counts} == dict.fromkeys(counts, 2)

    def test_no_trial_count_sets_a_horizon(self):
        assert SUITES["regret"].counts == ()  # rate-decay compares two horizons of one fixed stream
        assert not {"t", "steps"} & {p for suite in SUITES.values() for p in suite.counts}

    def test_every_suite_defaults_to_the_seed_run_suites_gives_it(self):
        default = inspect.signature(run_suites).parameters["seed"].default
        seeds = {name: inspect.signature(suite.run).parameters["seed"].default for name, suite in SUITES.items()}
        assert seeds == dict.fromkeys(SUITES, default)

    def test_registry_alignment(self):
        # one canonical defect per suite; a fast-path defect names the bit check it breaks
        canonical = sorted(entry.suite for entry in MUTANTS.values() if entry.breaks is None)
        assert canonical == sorted(SUITES) and {entry.suite for entry in MUTANTS.values()} == set(SUITES)
        fast = {mutant: entry.breaks for mutant, entry in MUTANTS.items() if entry.breaks}
        assert fast == {
            "native-walk": "walk-agreement-{cost}",
            "swapped-walk-free": "walk-agreement-{cost}",
            "reversed-sum": "sweep-agreement",
            "reassociated-eta": "checked-agreement",
            "reversed-draw": "checked-agreement",
        }


class TestGridOracle:
    def test_matches_exact_projection(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = rng.uniform(-1.0, 2.0, size=6)
            got = grid_projection_oracle(v, 3)
            exact = project_capped_simplex(v, 3)
            assert np.max(np.abs(got - exact)) <= 1e-5

    def test_hand_case(self):
        got = grid_projection_oracle(np.array([1.2, 0.9, 0.5]), 2)
        np.testing.assert_allclose(got, [1.0, 0.7, 0.3], atol=1e-5)
