"""The package's public names, and the names retired from them."""

import pytest

import goodpairs

# no longer run by the certifier: the Hamilton split and the dipaths it
# reads stay in goodpairs.constructions and goodpairs.digraph, the
# branching enumerator is a test oracle, and path packing is gone
RETIRED = (
    "Dipath",
    "PathPacking",
    "digon_root_transfer",
    "enumerate_branchings",
    "hamilton_dipath",
    "longest_dipath",
    "max_arc_disjoint_paths",
    "pair_from_hamilton",
    "verify_dipath",
)


def test_every_exported_name_resolves():
    assert len(set(goodpairs.__all__)) == len(goodpairs.__all__)
    namespace: dict = {}
    exec("from goodpairs import *", namespace)
    assert set(goodpairs.__all__) <= namespace.keys()


@pytest.mark.parametrize("name", RETIRED)
def test_retired_name_not_exported(name):
    assert name not in goodpairs.__all__
    with pytest.raises(ImportError):
        exec(f"from goodpairs import {name}", {})
