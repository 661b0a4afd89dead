import random
import sys

import numpy as np
import pytest

from axmul import fabric
from axmul.adders import AdderLibrary, FullAdderSpec


def random_adder(name: str, rng: random.Random) -> FullAdderSpec:
    return FullAdderSpec(
        name,
        tuple(rng.randint(0, 1) for _ in range(8)),
        tuple(rng.randint(0, 1) for _ in range(8)),
    )


@pytest.fixture
def zero_adder():
    return FullAdderSpec("ZERO", (0,) * 8, (0,) * 8)


@pytest.fixture
def small_library(zero_adder):
    """ZERO plus two seeded random truth tables (and the injected exact)."""
    rng = random.Random(1234)
    return AdderLibrary([zero_adder,
                         random_adder("RND1", rng),
                         random_adder("RND2", rng)])


@pytest.fixture
def eval_pair_counts(monkeypatch):
    """Pair count of every `eval_multiply_many` call made through the package.

    The evaluator is replaced under every name an axmul module binds it
    to, so no sweep path can evaluate without being counted.
    """
    original = fabric.eval_multiply_many
    counts = []

    def counted(grid, xs, ys):
        counts.append(int(np.asarray(xs).size))
        return original(grid, xs, ys)

    for name, module in list(sys.modules.items()):
        if name.startswith("axmul.") and name != "axmul.fabric":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return counts
