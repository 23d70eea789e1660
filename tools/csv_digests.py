"""sha256 of the CSVs that `ttsbeam run` writes for six fixed comparison configs.

    python3 tools/csv_digests.py [--keep DIR]

Writes the configs to a temporary directory, runs `ttsbeam run` on each with
the sources of this checkout and BLAS at one thread, and prints one line per
config: its name and the sha256 of its CSV. Equal lines from two checkouts
mean byte-identical CSVs on these configs. With `--keep DIR` the six CSVs are
written to DIR as NAME.csv, so the cells that moved between two checkouts can
be listed with `diff`. The configs:

- su-shipped: `configs/single_user.yaml` at `trials: 2`;
- mu-shipped: `configs/multi_user.yaml` at `trials: 1`, SSCA `max_iters: 100`;
- icsi-su, icsi-mu: the `icsi` benchmark workload's two configs;
- su-all: every scheme at K = 1 (`single_user.yaml`, d = 50 m, q in {1, 2},
  `trials: 1`, SSCA `max_iters: 100`);
- mu-all: every scheme but `tts-pdd` at K = 4 (`multi_user.yaml`,
  `trials: 1`, SSCA `max_iters: 100`).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import _shipped, workload_configs  # noqa: E402  (perfbench/run.py)

ALL_SCHEMES = ["tts-pdd", "tts-ssca", "random-phase", "no-irs", "naive-icsi",
               "single-timescale", "icsi-per-slot"]


def comparison_configs() -> dict[str, dict]:
    su_shipped, mu_shipped = _shipped("single_user.yaml"), _shipped("multi_user.yaml")
    su_shipped["experiment"]["trials"] = 2
    mu_shipped["experiment"]["trials"] = 1
    mu_shipped["experiment"]["ssca"]["max_iters"] = 100

    icsi_su, icsi_mu = workload_configs("icsi")

    su_all = _shipped("single_user.yaml")
    su_all["experiment"].update(schemes=ALL_SCHEMES, q_bits=[1, 2], trials=1,
                                ssca={"max_iters": 100},
                                sweep={"variable": "ap_user_distance", "grid": [50.0]})
    mu_all = copy.deepcopy(mu_shipped)
    mu_all["experiment"]["schemes"] = [s for s in ALL_SCHEMES if s != "tts-pdd"]

    return {"su-shipped": su_shipped, "mu-shipped": mu_shipped, "icsi-su": icsi_su,
            "icsi-mu": icsi_mu, "su-all": su_all, "mu-all": mu_all}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--keep", type=Path, default=None, help="directory that keeps the CSVs")
    args = p.parse_args(argv)
    if args.keep is not None:
        args.keep.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("TTSBEAM_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in comparison_configs().items():
            config = Path(tmp) / f"{name}.yaml"
            out = (args.keep or Path(tmp)) / f"{name}.csv"
            config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
            subprocess.run([sys.executable, "-m", "ttsbeam.cli", "--quiet", "run",
                            "--config", str(config), "--out", str(out)], env=env, check=True)
            print(f"{name} {hashlib.sha256(out.read_bytes()).hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
