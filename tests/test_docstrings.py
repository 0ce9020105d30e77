import doctest

import pytest

from kommute import blocks, construct, formulas, oracle, perm, series, verify


@pytest.mark.parametrize(
    "module,examples",
    [
        (perm, 10), (blocks, 6), (construct, 1), (formulas, 2), (oracle, 3), (series, 0),
        (verify, 1),
    ],
)
def test_docstring_examples(module, examples):
    failures, attempted = doctest.testmod(module)
    assert failures == 0
    assert attempted == examples
