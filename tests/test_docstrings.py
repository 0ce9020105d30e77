import ast
import doctest
import shlex
from pathlib import Path

import pytest

from kommute import blocks, cli, construct, formulas, oracle, perm, series, verify


@pytest.mark.parametrize(
    "module,examples",
    [
        (perm, 11), (blocks, 6), (construct, 0), (formulas, 2), (oracle, 3), (series, 0),
        (verify, 1),
    ],
)
def test_docstring_examples(module, examples):
    failures, attempted = doctest.testmod(module)
    assert failures == 0
    assert attempted == examples


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block():
    # run the README's Library block statement by statement and check each
    # value its comments give
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.get_source_segment(block, stmt.value)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    beta = namespace["beta"]
    dist = oracle.distribution(beta)
    assert values["alpha.commute_distance(beta)"] == 5
    assert values["blocks.bad_points(alpha, beta)"] == frozenset({1, 2, 3, 5, 6})
    assert values["blocks.profile(alpha, beta)"] == (4, 1)
    assert values["blocks.block_decomposition(alpha, beta, 0).blocks"] == (
        (1,), (7,), (5, 3), (6,))
    assert values["formulas.count(beta.cycle_type(), 3).value"] == dist[3]
    assert values["oracle.distribution(beta).counts"] == dist.counts
    assert values["oracle.distribution(beta).profiles[(4, 1)]"] == 500
    witnesses = values["construct.enumerate_single_cycle(beta, 3)"]
    assert witnesses == oracle.filter_by_profile(beta, (3,))
    s = values["series.ncycle_egf(10)"]
    assert all(
        series.ncycle_egf_coeff(s, n, k) == formulas.count_for_ncycle(k, n)
        for n in range(1, 11) for k in range(n + 1)
    )
    name, failures = next(values["verify.verification_checks(6)"])
    assert (name, failures) == ("closed forms k<=4 vs brute force", [])
    assert len(values) == 10


def test_readme_cli_block(capsys):
    # run each command line of the README's CLI block in process; the first
    # one's output starts with the record its comment shows, up to the ...
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("kommute ")]
    outputs = []
    for line in lines:
        assert cli.main(shlex.split(line, comments=True)[1:]) == 0, line
        outputs.append(capsys.readouterr().out)
    assert len(lines) == 11
    shown = block.split(lines[0] + "\n# ", 1)[1].split("...", 1)[0]
    assert outputs[0].startswith(shown)
