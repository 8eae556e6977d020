import csv

import numpy as np

from headlab import cli
from headlab.tables import write_csv, write_json


def test_csv_bytes(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(
        path,
        ["a", "b", "c", "d"],
        [
            [1.5, np.float64(0.1), None, "x,y"],
            [float("nan"), np.float64("inf"), -0.0, np.float64(-0.0)],
            [5e-324, np.float64(5e-324), np.int64(7), 0.1 + 0.2],
            [np.float64(1e16), np.float64("nan"), -float("inf"), "plain"],
        ],
    )
    assert path.read_bytes() == (
        b"a,b,c,d\r\n"
        b'1.5,0.1,,"x,y"\r\n'
        b"nan,inf,-0.0,-0.0\r\n"
        b"5e-324,5e-324,7,0.30000000000000004\r\n"
        b"1e+16,nan,-inf,plain\r\n"
    )


def test_csv_header_only(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["instance"], [])
    assert path.read_bytes() == b"instance\r\n"


def test_json_bytes(tmp_path):
    path = tmp_path / "t.json"
    write_json(
        path,
        {
            "z": [np.float64(0.1), 0.1 + 0.2, -0.0, 5e-324],
            "a": {"nan": float("nan"), "inf": np.float64("inf"), "none": None},
            "m": "text",
        },
    )
    assert path.read_text() == (
        "{\n"
        '  "a": {\n'
        '    "inf": Infinity,\n'
        '    "nan": NaN,\n'
        '    "none": null\n'
        "  },\n"
        '  "m": "text",\n'
        '  "z": [\n'
        "    0.1,\n"
        "    0.30000000000000004,\n"
        "    -0.0,\n"
        "    5e-324\n"
        "  ]\n"
        "}\n"
    )


def test_every_float_cell_of_a_run_is_its_repr(tmp_path):
    out = str(tmp_path / "runs")
    corpus = ["--corpus.kind", "zipf", "--corpus.vocab_size", "16", "--corpus.num_seqs", "24",
              "--corpus.seq_len", "12", "--corpus.seed", "4", "--max_context_len", "1"]
    for argv in [
        ["train", "--width", "4", "--steps", "40", "--lr", "0.02", "--eval_every", "20",
         "--val_fraction", "0.25", *corpus],
        ["diagnose", "--checkpoint", f"{out}/train/checkpoint.bin", "--token_counts", "[1,8,32]",
         *corpus],
        ["verify", "--loss_floor.instances", "20", "--logit_rank_caps.instances", "20",
         "--top1_reachability.instances", "2", "--error_rank_floor.instances", "10",
         "--batch_rank_floor.instances", "3",
         "--update_residual_gap.instances", "10"],
        ["bottleneck-sweep", "--vocab_size", "24", "--width", "6", "--ranks", "[2,6]",
         "--seeds", "[0]", "--num_seqs", "24", "--seq_len", "12", "--steps", "20",
         "--eval_every", "10", "--warmup_steps", "2"],
    ]:
        assert cli.main([argv[0], "--out", out, *argv[1:]]) == 0, argv[0]
    tables = sorted((tmp_path / "runs").rglob("*.csv"))
    assert {p.parent.name for p in tables} >= {"train", "diagnose", "verify", "bottleneck"}
    floats = 0
    for path in tables:
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                for cell in row:
                    assert cell != "None" and not cell.startswith("np."), (path, cell)
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    if not cell.lstrip("-").isdigit():
                        assert cell == repr(value), (path, cell)
                        floats += 1
    assert floats > 100
