"""README's checked content: its results tables, rebuilt here from the golden
sweeps, and its python code blocks, each run as a reader would paste it.

Print the tables (to paste after a deliberate change of the goldens) with

    PYTHONPATH=src python tests/test_readme.py
"""

import csv
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
DATA = Path(__file__).resolve().parent / "data"

# golden file, and the header of its swept sigma column
RESULTS = (("golden_velocity_sweep.csv", "σ_ṙ (m/s)"),
           ("golden_acceleration_sweep.csv", "σ_drr (m/s²)"))


def results_table(golden: str, sigma_header: str) -> str:
    """The golden sweep's RMSEs as a markdown table, 4 significant digits, with
    the WLS/LS ratio of each kinematic stage."""
    with open(DATA / golden, newline="") as fh:
        rows = list(csv.DictReader(fh))
    lines = [f"| {sigma_header} | position | velocity LS | velocity WLS | WLS/LS "
             "| acceleration LS | acceleration WLS | WLS/LS |",
             "|" + " ---: |" * 8]
    for row in rows:
        vel_ls, vel_wls, acc_ls, acc_wls = (float(row[key]) for key in (
            "rmse_vel_ls", "rmse_vel_wls", "rmse_acc_ls", "rmse_acc_wls"))
        cells = [f"{float(row['sigma']):.4g}", f"{float(row['rmse_pos']):.4g}",
                 f"{vel_ls:.4g}", f"{vel_wls:.4g}", f"{vel_wls / vel_ls:.3f}",
                 f"{acc_ls:.4g}", f"{acc_wls:.4g}", f"{acc_wls / acc_ls:.3f}"]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def test_readme_results_tables_match_the_goldens():
    readme = README.read_text(encoding="utf-8")
    for golden, sigma_header in RESULTS:
        assert results_table(golden, sigma_header) in readme, golden


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"), {})
        assert capsys.readouterr().out, index       # each block prints its results


if __name__ == "__main__":
    for golden, sigma_header in RESULTS:
        print(results_table(golden, sigma_header))
