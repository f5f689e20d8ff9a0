"""The LP stack (numpy/scipy) loads only when an LP is solved.

No simulator run solves an LP, so importing the package and running a
deployment must leave numpy and scipy unloaded: they would otherwise be
most of every run's start-up time and memory.  The start-up probes run in
a fresh interpreter, because this test process may already hold them.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.assignment import (
    AssignmentProblem,
    IlpSolver,
    InstanceSpec,
    VipSpec,
    plan_update,
    solve_greedy,
    validate_assignment,
)
from repro.core.assignment.greedy import compact_assignment

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def small_problem(extra_traffic: float = 0.0, **history) -> AssignmentProblem:
    return AssignmentProblem(
        vips=[VipSpec(f"v{i}", 20.0 + extra_traffic + 5 * i, 50 * (i + 1),
                      1 + i % 2) for i in range(6)],
        instances=[InstanceSpec(f"y{i}", 100.0, 5000) for i in range(8)],
        **history,
    )


def test_simulator_run_leaves_lp_stack_unloaded():
    out = run_fresh("""
        import sys
        import repro, repro.cli, repro.chaos.library, repro.shard
        import repro.workload, repro.experiments.harness
        from repro.experiments.harness import Testbed
        Testbed().run(0.5)
        print(sorted(m for m in ("numpy", "scipy") if m in sys.modules))
    """)
    assert out.strip() == "[]", f"loaded at start-up: {out.strip()}"


def test_lp_solve_loads_lp_stack():
    pytest.importorskip("scipy")
    out = run_fresh("""
        import sys
        from repro.core.assignment import (
            AssignmentProblem, IlpSolver, InstanceSpec, VipSpec)
        print("scipy" in sys.modules)
        prob = AssignmentProblem(
            vips=[VipSpec("a", 50, 100, 2), VipSpec("b", 30, 400, 1)],
            instances=[InstanceSpec(f"y{i}", 100.0, 5000) for i in range(4)])
        solver = IlpSolver(enforce_update_constraints=False)
        solver.solve(prob)
        print("scipy" in sys.modules, solver.lp_lower_bound is not None)
    """)
    assert out.split() == ["False", "True", "True"]


@pytest.mark.parametrize("blocked", [("scipy",), ("numpy", "scipy")])
class TestWithoutLpStack:
    """With the LP stack unimportable, the ILP solver is greedy + compaction."""

    @pytest.fixture(autouse=True)
    def block_imports(self, monkeypatch, blocked):
        # a None entry in sys.modules makes ``import`` raise ImportError
        for name in blocked:
            monkeypatch.setitem(sys.modules, name, None)
        if "scipy" in blocked:
            monkeypatch.setitem(sys.modules, "scipy.optimize", None)
            monkeypatch.setitem(sys.modules, "scipy.sparse", None)

    def test_ilp_falls_back_to_greedy(self):
        prob = small_problem()
        solver = IlpSolver()
        assignment = solver.solve(prob)
        assert validate_assignment(prob, assignment).ok
        assert solver.lp_lower_bound is None
        greedy = compact_assignment(prob, solve_greedy(prob),
                                    enforce_update_constraints=True)
        assert assignment.mapping == greedy.mapping

    def test_plan_update_with_lp_completes(self):
        first = solve_greedy(small_problem())
        prob = small_problem(
            extra_traffic=6.0,
            old_assignment=first.mapping,
            old_connections={(v, i): 10.0 for v, lst in first.mapping.items()
                             for i in lst},
            migration_limit=0.10,
        )
        outcome = plan_update(prob, limit=True, use_lp=True)
        assert outcome.instances_used > 0
        assert validate_assignment(prob, outcome.assignment,
                                   check_transient=False,
                                   check_migration=False).ok
