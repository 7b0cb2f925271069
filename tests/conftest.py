import gc

import pytest


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """Run the test with the cyclic collector on, then off; restore it after."""
    was = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if was:
        gc.enable()
    else:
        gc.disable()
