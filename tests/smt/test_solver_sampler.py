"""Tests for the portfolio solver, the sampler and the overflow heuristics."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.smt import builder as b
from repro.smt.evalmodel import evaluate, satisfies
from repro.smt.heuristics import try_algebraic_solution
from repro.smt.sampler import ModelSampler, SamplerConfig, split_conjuncts
from repro.smt.solver import PortfolioSolver, SolverConfig, SolverStatus


@pytest.fixture
def solver():
    return PortfolioSolver()


class TestPortfolioBasic:
    def test_empty_query_is_sat(self, solver):
        assert solver.check([]).is_sat

    def test_true_constant(self, solver):
        assert solver.check([b.TRUE]).is_sat

    def test_false_constant(self, solver):
        assert solver.check([b.FALSE]).is_unsat

    def test_point_constraint(self, solver):
        x = b.bv_var("x", 32)
        result = solver.check([b.eq(x, 1234)])
        assert result.is_sat
        assert result.model["x"] == 1234

    def test_point_box_is_decided_by_the_heuristics_layer(self, solver):
        """Intervals pin every variable to one value; layer 3's box corners
        then find that point, so the portfolio needs no point shortcut."""
        x = b.bv_var("x", 32)
        y = b.bv_var("y", 32)
        result = solver.check(
            [b.uge(x, 5), b.ule(x, 5), b.uge(y, 9), b.ule(y, 9), b.eq(b.add(x, y), 14)]
        )
        assert result.status == SolverStatus.SAT
        assert result.model.as_dict() == {"x": 5, "y": 9}
        assert result.stages_tried == ("simplify", "intervals", "heuristics")

    @pytest.mark.parametrize(
        "third, status, model, stages",
        [
            pytest.param(
                lambda x: b.eq(b.mul(x, 3), 15),
                SolverStatus.SAT, {"x": 5}, ("simplify", "intervals", "heuristics"),
                id="third-conjunct-holds",
            ),
            pytest.param(
                lambda x: b.eq(b.mul(x, 3), 16),
                SolverStatus.UNSAT, None, ("simplify", "intervals"),
                id="third-conjunct-fails",
            ),
            pytest.param(
                lambda x: b.ne(x, 5),
                SolverStatus.UNSAT, None, ("simplify", "intervals"),
                id="point-excluded",
            ),
        ],
    )
    def test_point_box_query_keeps_its_verdict(self, solver, third, status, model, stages):
        """x in [5, 5] plus a third conjunct: the point model when it holds,
        UNSAT when it does not."""
        x = b.bv_var("x", 32)
        result = solver.check([b.uge(x, 5), b.ule(x, 5), third(x)])
        assert result.status == status
        assert (result.model.as_dict() if result.is_sat else None) == model
        assert result.stages_tried == stages

    def test_wrapping_point_box_is_decided_at_the_point(self, solver):
        z = b.bv_var("z", 8)
        result = solver.check([b.uge(z, 200), b.ule(z, 200), b.ult(b.add(z, 100), 50)])
        assert result.is_sat
        assert result.model.as_dict() == {"z": 200}
        assert result.stages_tried == ("simplify", "intervals", "heuristics")

    def test_contradiction_via_intervals(self, solver):
        x = b.bv_var("x", 32)
        result = solver.check([b.ult(x, 10), b.ugt(x, 20)])
        assert result.is_unsat

    def test_model_always_satisfies(self, solver):
        x = b.bv_var("x", 32)
        y = b.bv_var("y", 32)
        constraints = [b.ugt(b.mul(x, y), 1000), b.ult(x, 100), b.ult(y, 100)]
        result = solver.check(constraints)
        assert result.is_sat
        for constraint in constraints:
            assert satisfies(constraint, result.model)

    def test_sat_result_carries_metadata(self, solver):
        x = b.bv_var("x", 32)
        result = solver.check([b.ugt(x, 5)])
        assert result.is_sat
        assert result.stages_tried
        assert result.elapsed_seconds >= 0

    def test_solve_for_model_none_on_unsat(self, solver):
        x = b.bv_var("x", 32)
        assert solver.solve_for_model([b.ult(x, 3), b.ugt(x, 5)]) is None


class TestPortfolioOverflowQueries:
    def test_dillo_style_overflow_sat(self, solver):
        w = b.bv_var("w", 32)
        h = b.bv_var("h", 32)
        wide = b.mul(b.zext(w, 64), b.zext(h, 64))
        result = solver.check(
            [b.ugt(wide, b.bv_const(0xFFFFFFFF, 64)), b.ult(w, 10**6), b.ult(h, 10**6)]
        )
        assert result.is_sat
        assert evaluate(wide, result.model) > 0xFFFFFFFF

    def test_dillo_style_overflow_unsat_with_blocking_bound(self, solver):
        w = b.bv_var("w", 32)
        h = b.bv_var("h", 32)
        wide = b.mul(b.zext(w, 64), b.zext(h, 64))
        result = solver.check(
            [b.ugt(wide, b.bv_const(0xFFFFFFFF, 64)), b.ult(w, 1154), b.ult(h, 10**6)]
        )
        assert result.is_unsat

    def test_addition_overflow_two_solutions(self, solver):
        """The CVE-2008-2430 shape: x + 2 wraps for exactly two values."""
        x = b.bv_var("x", 32)
        wide = b.add(b.zext(x, 64), b.bv_const(2, 64))
        result = solver.check([b.ugt(wide, b.bv_const(0xFFFFFFFF, 64))])
        assert result.is_sat
        assert result.model["x"] in (0xFFFFFFFE, 0xFFFFFFFF)

    def test_small_bitblast_fallback(self, solver):
        x = b.bv_var("x", 8)
        y = b.bv_var("y", 8)
        constraint = b.eq(b.bvxor(b.mul(x, y), b.bv_const(0x5A, 8)), 0)
        result = solver.check([constraint, b.ugt(x, 3), b.ugt(y, 3)])
        assert result.is_sat
        assert satisfies(constraint, result.model)


class TestSampler:
    def test_split_conjuncts(self):
        p, q, r = b.bool_var("p"), b.bool_var("q"), b.bool_var("r")
        assert len(split_conjuncts(b.band(p, b.band(q, r)))) == 3

    def test_samples_satisfy_constraint(self):
        x = b.bv_var("x", 32)
        y = b.bv_var("y", 32)
        constraint = b.band(b.ult(x, 1000), b.ugt(b.mul(x, y), 500_000))
        sampler = ModelSampler(constraint, [x, y], SamplerConfig(seed=3))
        models = sampler.sample(20)
        assert len(models) == 20
        for model in models:
            assert satisfies(constraint, model)

    def test_samples_are_diverse(self):
        x = b.bv_var("x", 32)
        constraint = b.ugt(x, 10)
        sampler = ModelSampler(constraint, [x], SamplerConfig(seed=5))
        values = {model["x"] for model in sampler.sample(30)}
        assert len(values) > 5

    def test_unsatisfiable_returns_nothing(self):
        x = b.bv_var("x", 32)
        constraint = b.band(b.ult(x, 5), b.ugt(x, 10))
        sampler = ModelSampler(constraint, [x], SamplerConfig(seed=1))
        assert sampler.sample(5) == []

    def test_trivially_true_constraint(self):
        x = b.bv_var("x", 32)
        sampler = ModelSampler(b.TRUE, [x], SamplerConfig(seed=1))
        assert len(sampler.sample(3)) == 3

    def test_deterministic_with_seed(self):
        x = b.bv_var("x", 32)
        constraint = b.ugt(x, 100)
        first = ModelSampler(constraint, [x], SamplerConfig(seed=11)).sample(5)
        second = ModelSampler(constraint, [x], SamplerConfig(seed=11)).sample(5)
        assert [m.as_dict() for m in first] == [m.as_dict() for m in second]

    def test_default_config_is_deterministic(self):
        """The solver's sampling layer runs on the default config, so its
        models (and the CDCL work left after it) must not vary by run."""
        x = b.bv_var("x", 32)
        constraint = b.ugt(x, 100)
        first = ModelSampler(constraint, [x]).sample(5)
        second = ModelSampler(constraint, [x]).sample(5)
        assert [m.as_dict() for m in first] == [m.as_dict() for m in second]

    def test_solver_sample_models_interface(self):
        solver = PortfolioSolver()
        w = b.bv_var("w", 32)
        h = b.bv_var("h", 32)
        constraint = b.ugt(b.mul(b.zext(w, 64), b.zext(h, 64)), b.bv_const(0xFFFFFFFF, 64))
        models = solver.sample_models([constraint], 10, seed=2)
        assert len(models) == 10
        for model in models:
            assert satisfies(constraint, model)


class TestHeuristics:
    def test_algebraic_solution_for_bounded_overflow(self):
        w = b.bv_var("w", 32)
        h = b.bv_var("h", 32)
        constraint = b.band(
            b.ugt(b.mul(b.zext(w, 64), b.zext(h, 64)), b.bv_const(0xFFFFFFFF, 64)),
            b.band(b.ult(w, 10**6), b.ult(h, 10**6)),
        )
        model = try_algebraic_solution(constraint)
        assert model is not None
        assert satisfies(constraint, model)

    def test_algebraic_solution_none_for_unsat(self):
        x = b.bv_var("x", 32)
        constraint = b.band(b.ult(x, 5), b.ugt(x, 10))
        assert try_algebraic_solution(constraint) is None


def _output_under_hash_seed(body: str, seed: str) -> str:
    """stdout of ``body`` run in a fresh interpreter under ``PYTHONHASHSEED``."""
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    script = f"import sys; sys.path.insert(0, {src_dir!r})\n" + body
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONHASHSEED=seed),
    )
    return completed.stdout


class TestRepeatsAcrossProcesses:
    """The same query must cost the same work in every process; a bench
    comparing two solver arms is meaningless otherwise."""

    def test_default_sampler_draws_the_same_models(self):
        body = (
            "from repro.smt import builder as b\n"
            "from repro.smt.sampler import ModelSampler\n"
            "x = b.bv_var('x', 32)\n"
            "models = ModelSampler(b.ugt(x, 100), [x]).sample(5)\n"
            "print([m.as_dict() for m in models])\n"
        )
        first = _output_under_hash_seed(body, "0")
        assert first.strip()
        assert _output_under_hash_seed(body, "1") == first

    def test_cdcl_query_costs_the_same_conflicts(self):
        # 30174 = 143 * 211 + 1: no layer before bit-blasting finds the
        # factors, so the CDCL search decides it.
        body = (
            "from repro.smt import builder as b\n"
            "from repro.smt.solver import PortfolioSolver\n"
            "from repro.obs.metrics import METRICS\n"
            "x = b.bv_var('x', 8); y = b.bv_var('y', 8); z = b.bv_var('z', 8)\n"
            "product = b.mul(b.zext(x, 16), b.zext(y, 16))\n"
            "result = PortfolioSolver().check([\n"
            "    b.eq(b.add(product, b.zext(z, 16)), 30174),\n"
            "    b.ugt(x, 1), b.ugt(y, 1), b.ult(x, y), b.ult(z, 3)])\n"
            "print(result.status, result.stages_tried[-1], result.model.as_dict(),\n"
            "      METRICS.counter('solver.cdcl_conflicts').value)\n"
        )
        first = _output_under_hash_seed(body, "0")
        assert first.startswith("sat bitblast")
        assert _output_under_hash_seed(body, "7") == first


class TestLayersReuseEarlierWork:
    """Layers 3 and 4 read what layer 2 already derived."""

    def test_sampling_layer_draws_from_the_interval_box(self, monkeypatch):
        from repro.smt import heuristics, sampler
        from repro.smt import solver as solver_module
        from repro.smt.interval import propagate_intervals

        propagations = []

        def counting(*args, **kwargs):
            propagations.append(1)
            return propagate_intervals(*args, **kwargs)

        for module in (solver_module, heuristics, sampler):
            monkeypatch.setattr(module, "propagate_intervals", counting)
        x, y, z = (b.bv_var(name, 8) for name in "xyz")
        product = b.mul(b.zext(x, 16), b.zext(y, 16))
        result = PortfolioSolver().check([
            b.eq(b.add(product, b.zext(z, 16)), 30174),
            b.ugt(x, 1), b.ugt(y, 1), b.ult(x, y), b.ult(z, 3),
        ])
        assert result.is_sat
        assert "sampling" in result.stages_tried
        assert len(propagations) == 1

    def test_first_campaign_compiles_fewer_evaluators_for_the_same_models(self):
        """Layer 3 checks candidates with the conjuncts' own evaluators.

        Against a reference that checks them on the conjunction's ``band``
        (one fresh evaluator per multi-conjunct query), a fresh process's
        first serial registry campaign compiles 25 band evaluators fewer,
        and 14 conjuncts that nothing else evaluates more: 103 -> 92.
        """
        body = (
            "import json\n"
            "from repro.smt import builder as b, evalcompile, solver\n"
            "from repro.smt.evalmodel import satisfies\n"
            "from repro.smt.heuristics import extreme_point_models\n"
            "from repro.core.campaign import CampaignConfig, run_campaign\n"
            "compiled = []\n"
            "original = evalcompile._compile\n"
            "def counting(term):\n"
            "    compiled.append(term)\n"
            "    return original(term)\n"
            "evalcompile._compile = counting\n"
            "def band_checked(conjuncts, variables, max_checks, bounds):\n"
            "    whole = b.band(*conjuncts) if conjuncts else b.TRUE\n"
            "    candidates = extreme_point_models(variables, bounds)\n"
            "    for checks, candidate in enumerate(candidates, 1):\n"
            "        if satisfies(whole, candidate):\n"
            "            return candidate\n"
            "        if checks >= max_checks:\n"
            "            return None\n"
            "if REFERENCE:\n"
            "    solver.try_algebraic_solution = band_checked\n"
            "result = run_campaign(CampaignConfig(backend='serial', jobs=1))\n"
            "models = [\n"
            "    [step.candidate_model for step in site.enforcement.steps]\n"
            "    for app in result.application_results\n"
            "    for site in app.site_results if site.enforcement is not None]\n"
            "print(json.dumps({'compiled': len(compiled), 'models': models,\n"
            "                  'classifications': result.classifications()}))\n"
        )
        import json

        reference = json.loads(_output_under_hash_seed("REFERENCE = True\n" + body, "0"))
        change = json.loads(_output_under_hash_seed("REFERENCE = False\n" + body, "0"))
        assert change["classifications"] == reference["classifications"]
        assert change["models"] == reference["models"]
        assert (reference["compiled"], change["compiled"]) == (103, 92)
