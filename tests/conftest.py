import gc

import pytest

from supersparse import poly


@pytest.fixture(autouse=True, scope="session")
def checked_builds():
    """Check the columns of every polynomial the package builds.

    The package trusts its own kernels to hand from_columns canonical
    columns; with this on, a kernel that emits a non-canonical result
    fails whichever test ran it.
    """
    shipped = poly._CHECK_BUILDS
    poly._CHECK_BUILDS = True
    yield
    poly._CHECK_BUILDS = shipped


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
