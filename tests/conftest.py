import pytest

import hypmoduli.search as search


@pytest.fixture(autouse=True)
def _fresh_mc_memo():
    # witness_for shares each Monte Carlo search across an orbit for the
    # whole process; a test that records mc_search calls must see its own
    search._im_pair_search.cache_clear()
    yield
