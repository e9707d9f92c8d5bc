"""Golden numbers: the h = 0.08 command chain of the CI workflow (mesh,
expand, resonate, optimize, validate-disk), run in-process, must reproduce
`golden.json` to 1e-12 relative.  Only well-conditioned numbers are kept:
no remainder ratio E_n(delta)/E_n(delta/2) and no flux identity, which sit
at the rounding level.  `optimize.fractional_mass` is the area of the one
element that the design leaves partial; it was bit-identical under two
hash seeds and two BLAS thread counts.  A change that moves a number on
purpose records the file again in the same change:

    PYTHONPATH=src python tests/test_golden.py > tests/golden.json
"""

import contextlib
import csv
import io
import json
import pathlib
import sys
import tempfile

import pytest

from enzres import cli

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
R0 = "1.3671899114809272"
SIC = ["--eps-inf", "6.7", "--omega-p", "0.7", "--omega-0", "1.0",
       "--gamma-max", "0.006", "--steps", "20"]


def run(*argv) -> dict:
    """The JSON document a command prints last, after it exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    text = out.getvalue()
    return json.loads(text[text.index("{"):])


def chain_numbers(directory: pathlib.Path) -> dict:
    """The chain's golden numbers, flat: one key per number."""
    mesh, series, trace = (str(directory / name)
                           for name in ("disk.mesh", "s.json", "t.csv"))
    metrics = run("mesh", "--kind", "concentric", "--rd", "1", "--r0", R0,
                  "--rb", "2", "--h", "0.08", "-o", mesh)["metrics"]
    expand = run("expand", "--mesh", mesh, "--lo", "6", "--hi", "14",
                 "--order", "3", "-o", series)
    run("resonate", "--series", series, *SIC, "-o", trace)
    design = run("optimize", "--mesh", mesh, "--lo", "6", "--hi", "14")
    validate = run("validate-disk", "--h", "0.08")

    numbers = {f"mesh.{k}": metrics[k] for k in ("n_nodes", "n_triangles")}
    numbers["expand.lambda0"] = expand["lambda0"]
    numbers["expand.norm_const"] = expand["norm_const"]
    for key in ("lambda", "e"):
        for n, value in enumerate(expand[key], 1):
            numbers[f"expand.{key}{n}"] = value
    with open(trace) as fh:
        for i, row in enumerate(csv.DictReader(fh)):
            for column, value in row.items():
                numbers[f"resonate.{i}.{column}"] = float(value)
    for key in ("value", "lambda1", "fractional_mass"):
        numbers[f"optimize.{key}"] = design[key]
    for key in ("lambda0", "order", "lambda1"):
        numbers[f"validate-disk.{key}"] = validate[key]
    return numbers


def test_chain_reproduces_golden_numbers(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert chain_numbers(tmp_path) == pytest.approx(golden, rel=1e-12,
                                                    abs=0)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        numbers = chain_numbers(pathlib.Path(tmp))
    json.dump(numbers, sys.stdout, indent=1)
    print()
