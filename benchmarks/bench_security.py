"""Figure 10 / Section 5.5: the attack-surface analysis, executed.

Runs every attack class against both stacks and prints the outcome
matrix.  The benchmark time is the cost of mounting all attacks on
fresh machines — i.e. the full adversarial evaluation.
"""

import pytest

from repro.evalkit.security import (
    SUCCEEDS,
    render_attack_matrix,
    run_attack_matrix,
)


@pytest.mark.benchmark(group="security")
def test_attack_matrix(benchmark, publish):
    results = benchmark.pedantic(run_attack_matrix, rounds=1, iterations=1)
    publish("figure10_attack_matrix", render_attack_matrix(results))

    assert len(results) >= 10
    for result in results:
        assert result.baseline.startswith(SUCCEEDS), result.name
        assert not result.secure.startswith(SUCCEEDS), result.name
