import numpy as np
import pytest
from hypothesis import settings

import cueplace as cp

# property tests replay the same example corpus on every run
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def calibrated_model() -> cp.ConfusionModel:
    return cp.synthesize_model(cp.calibrated_params())


@pytest.fixture(scope="session")
def identity() -> cp.ConfusionModel:
    return cp.identity_model(12)


@pytest.fixture
def side_by_side() -> cp.Layout:
    return cp.Layout((cp.Element("a", 354.0), cp.Element("b", 6.0)))


@pytest.fixture
def cone_pair() -> cp.Layout:
    return cp.Layout((cp.Element("a", 30.0), cp.Element("b", 150.0)))


def random_layout(rng: np.random.Generator, n: int) -> cp.Layout:
    azimuths = rng.uniform(0.0, 360.0, size=n)
    return cp.Layout(tuple(cp.Element(f"e{i}", float(a)) for i, a in enumerate(azimuths)))


def random_scores(
    rng: np.random.Generator,
    n: int,
    model: cp.ConfusionModel,
    quantize: float | None = None,
) -> cp.ScoreMatrix:
    """ScoreMatrix with uniform random utilities over a random layout."""

    layout = random_layout(rng, n)
    values = rng.uniform(0.0, 1.0, size=(n, model.bin_count))
    if quantize is not None:
        values = np.round(values / quantize) * quantize
    values.flags.writeable = False
    return cp.ScoreMatrix(values, model, layout)
