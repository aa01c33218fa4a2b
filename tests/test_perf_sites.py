"""Every name the perf tracer patches is still bound where it looks.

``benchmarks/perf`` traces the program by patching attributes by name
(``layers.SITES``): a method on a class, or a function imported into a
module.  A refactor that moves a method or drops an import breaks the
tracer without failing any test of the program itself, so this guard
resolves every site here.  It only imports; nothing is patched.
"""

import importlib

import pytest

from benchmarks.perf.layers import SITES


@pytest.mark.parametrize("site", SITES,
                         ids=[f"{s.owner}.{s.attr}" for s in SITES])
def test_site_is_bound(site):
    module_name, _, class_name = site.owner.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        assert hasattr(owner, class_name), \
            f"{module_name} has no {class_name}"
        owner = getattr(owner, class_name)
    assert hasattr(owner, site.attr), f"{site.owner} has no {site.attr}"
