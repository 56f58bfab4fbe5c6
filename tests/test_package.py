"""The package's public names: what the certifier runs, and nothing else."""

import pytest

import goodpairs

# no longer run by the certifier: the Hamilton split stays in
# goodpairs.constructions, and the branching enumerator is a test oracle
RETIRED = (
    "digon_root_transfer",
    "enumerate_branchings",
    "hamilton_dipath",
    "longest_dipath",
    "pair_from_hamilton",
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
