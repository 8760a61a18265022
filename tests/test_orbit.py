import pytest

from reflbench.errors import BudgetExceededError
from reflbench.orbit import orbit


def test_orbit_edges_in_breadth_first_order():
    # Z/6 under +2 and +3: generators are tried in the order given
    edges = orbit(0, (2, 3), lambda p, g: (p + g) % 6)
    assert list(edges) == [0, 2, 3, 4, 5, 1]
    assert edges[0] is None
    assert edges[3] == (0, 1) and edges[5] == (2, 1) and edges[1] == (4, 1)


def test_orbit_budget_is_exact():
    step = lambda p, g: (p + g) % 6  # noqa: E731
    assert len(orbit(0, (1,), step, budget=6)) == 6
    with pytest.raises(BudgetExceededError, match="cycle exceeded budget 5"):
        orbit(0, (1,), step, budget=5, what="cycle")


def test_orbit_without_generators_is_the_start():
    assert orbit("x", (), lambda p, g: p) == {"x": None}
