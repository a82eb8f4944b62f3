"""README's library quick tour runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs(tmp_path, monkeypatch, capsys):
    """The tour's ``python`` block, on a 2k-record ``d1.txt`` of its dims.

    The block reads ``d1.txt`` from the working directory and prints the
    test metrics, so a name it calls that the package no longer exports
    fails here.
    """
    tour = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    dims = (142, 4500, 64)
    assert f"parse_qos_log(\"d1.txt\", {dims})" in code

    rng = np.random.default_rng(0)
    cells = rng.choice(dims[0] * dims[1] * dims[2], size=2000, replace=False)
    rows = zip(*np.unravel_index(cells, dims), rng.uniform(0.1, 2.0, cells.size))
    (tmp_path / "d1.txt").write_text(
        "".join(f"{i} {j} {k} {v:.6f}\n" for i, j, k, v in rows), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})

    printed = capsys.readouterr().out
    values = [float(x) for x in re.findall(r"[-+\d.eE]+", printed)]
    assert len(values) == 2 and all(np.isfinite(values)), printed
