import pytest

from mvop.hyper import family


@pytest.fixture
def fresh_family():
    """An empty family cache before and after the test, so a test that patches
    the construction or counts work sees only its own builds and leaves none."""
    family.cache_clear()
    yield
    family.cache_clear()
