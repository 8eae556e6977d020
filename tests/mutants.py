"""A catalogue of mutants: small deliberate faults in `src/headlab`, each with
the tests that must catch it.

    python tests/mutants.py [MUTANT_ID ...]

applies one mutant at a time (every one, or those named) to a temporary copy
of `src/`, runs `python -m pytest -q -x` on the mutant's tests in one
subprocess, and reports it as killed (a test failed), survived (they all
passed) or stale (its old text does not occur exactly once in its file). It
exits 1 on any survivor or stale entry. A survivor is a finding about the
tests, not an entry to delete. `test_mutation_catalogue.py` checks in tier-1,
without running any mutant, that no entry is stale.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIMEOUT_S = 900


class Mutant(NamedTuple):
    id: str
    file: str  # under src/headlab
    old: str  # occurs exactly once in `file`
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant("kept-lost-swapped", "diagnostics.py",
           "linalg._split_rows(g, self.basis, out=(kept, lost))",
           "linalg._split_rows(g, self.basis, out=(lost, kept))",
           ("tests/test_streaming_diagnose.py::TestBlockwiseMatchesDense",)),
    Mutant("rank-v-branch-dropped", "linalg.py",
           "if basis.shape[1] == basis.shape[0]:",
           "if False:",
           ("tests/test_kernel_split_properties.py::test_kernel_split_matches_full_qr_oracle",)),
    Mutant("wide-head-refused", "linalg.py",
           '    a = as_matrix(w)\n    q, r, _ = scipy.linalg.qr(a, mode="economic", pivoting=True)',
           '    a = as_matrix(w)\n    if a.shape[0] < a.shape[1]:\n'
           '        raise ValueError(f"need rows >= cols, got shape {a.shape}")\n'
           '    q, r, _ = scipy.linalg.qr(a, mode="economic", pivoting=True)',
           ("tests/test_kernel_split_properties.py::test_kernel_split_matches_full_qr_oracle",
            "tests/test_cli.py::TestDiagnoseCommand::"
            "test_head_wider_than_its_vocabulary_reports_zero_lost")),
    Mutant("gw-assigned-not-summed", "model.py",
           "gw += np.matmul(lm.T, h_b, out=buffers.term)",
           "gw = np.matmul(lm.T, h_b, out=buffers.term)",
           ("tests/test_kernel_properties.py::test_row_block_kernel_matches_dense_oracle",)),
    Mutant("top1-ties-toward-highest-id", "model.py",
           "match[rows] = lm.argmax(axis=1) == counts.targets[rows]",
           "match[rows] = lm.shape[1] - 1 - lm[:, ::-1].argmax(axis=1) == counts.targets[rows]",
           ("tests/test_model.py::TestTop1Accuracy::test_argmax_ties_break_low",)),
    Mutant("row-ids-ignored", "model.py",
           "h_b = h[rows] if counts.row_ids is None else h[counts.row_ids[rows]]",
           "h_b = h[rows]",
           ("tests/test_kernel_properties.py::test_row_block_kernel_matches_dense_oracle",)),
    Mutant("last-row-block-dropped", "model.py",
           "    return range(0, counts.num_contexts, _block_rows(counts.vocab_size))",
           "    starts = range(0, counts.num_contexts, _block_rows(counts.vocab_size))\n"
           "    return starts[:-1] if len(starts) > 1 else starts",
           ("tests/test_metamorphic_properties.py::test_permuting_the_contexts_changes_no_figure",
            "tests/test_kernel_properties.py::test_row_block_kernel_matches_dense_oracle")),
    Mutant("pooled-results-reversed", "parallel.py",
           "range(len(jobs))]\n    return [future.result() for future in futures]",
           "range(len(jobs))]\n    return [future.result() for future in futures[::-1]]",
           ("tests/test_parallel.py::TestFork::"
            "test_jobs_closing_over_a_lambda_run_in_two_workers_in_job_order",)),
    Mutant("zipf-bisection-strict", "corpus.py",
           "lo += half * (rows[which, lo + half - 1] <= u)",
           "lo += half * (rows[which, lo + half - 1] < u)",
           ("tests/test_corpus.py::test_bisection_counts_ties_like_the_dense_comparison",)),
    Mutant("spamlang-seeds-share-a-corpus", "cli.py",
           'gen_spamlang(v, n, config["seq_len"], seed)',
           'gen_spamlang(v, n, config["seq_len"], seeds[0])',
           ("tests/test_cli.py::TestSpamlangSweep::test_every_cell_trains_on_its_own_corpus",)),
    Mutant("rank-tol-refusal-dropped", "verify.py",
           "if not rank_tol > 0:",
           "if False:",
           ("tests/test_cli.py::TestVerifyCommand::"
            "test_nonpositive_rank_tol_refused_before_any_check_runs",)),
    Mutant("qr-rank-overwrites-input", "linalg.py",
           "geqp3(a, lwork=lwork)",
           "geqp3(a, lwork=lwork, overwrite_a=1)",
           ("tests/test_linalg.py::test_qr_rank_counts_the_diagonal_of_scipys_pivoted_r",)),
    Mutant("qr-rank-skips-the-lwork-query", "linalg.py",
           "lwork = int(geqp3(a, lwork=-1)[3][0])",
           "lwork = max(3 * (a.shape[1] + 1), 1)",  # geqp3's default
           ("tests/test_linalg.py::test_qr_rank_counts_r_on_lapacks_blocked_path",)),
    Mutant("profile-chan-delta-dropped", "diagnostics.py",
           "self.m2 += other.m2 + delta**2 * (before * other.rows / self.rows)",
           "self.m2 += other.m2",
           ("tests/test_streaming_diagnose.py::test_blocks_added_in_row_order_equal_one_block",)),
    Mutant("gram-fallback-dropped", "linalg.py",
           "if tail > _GRAM_TAIL_FLOOR * total:",
           "if True:",
           ("tests/test_linalg.py::test_gram_form_skips_the_svd_unless_the_tail_cancels",)),
    Mutant("connected-edges-one-way", "verify.py",
           "reach = a | a.T | np.eye(a.shape[0], dtype=bool)",
           "reach = a | np.eye(a.shape[0], dtype=bool)",
           ("tests/test_verify.py::test_connected_matches_scipys_graph_search",)),
)


def occurrences(mutant: Mutant, src: Path = SRC) -> int:
    """How often the mutant's old text occurs in its file under `src`."""
    return (src / "headlab" / mutant.file).read_text().count(mutant.old)


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'stale': the mutant applied to a copy of
    `src/`, its tests run against that copy."""
    if occurrences(mutant) != 1:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="headlab-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "headlab" / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
        # the copy goes first on the path, in this process's subprocesses too
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    if done.returncode == 0:
        return "survived"
    if done.returncode != 1:  # 1 is failed tests; anything else is no verdict
        raise RuntimeError(f"{mutant.id}: pytest exited {done.returncode}\n{done.stdout}")
    return "killed"


def main(ids) -> int:
    known = {mutant.id: mutant for mutant in MUTANTS}
    unknown = [i for i in ids if i not in known]
    if unknown:
        print(f"unknown mutant id(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    outcomes = []
    for mutant in [known[i] for i in ids] if ids else MUTANTS:
        start = time.perf_counter()
        outcomes.append(run(mutant))
        print(f"{outcomes[-1]:8} {mutant.id} ({time.perf_counter() - start:.1f} s)", flush=True)
    return 0 if all(outcome == "killed" for outcome in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
