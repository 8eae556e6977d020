"""Machine-check every structural claim on brute-force instances.

Runs the six verifiers at moderate sizes and prints one row per claim:
instances, violations, and the worst margin (negative would mean a
counterexample).
"""

from headlab.verify import run_all

results = run_all(seed=0, sizes={
    "loss_floor": {"instances": 400},
    "logit_rank_caps": {"instances": 200},
    "top1_reachability": {"instances": 12},
    "error_rank_floor": {"instances": 80},
    "batch_rank_floor": {"instances": 25},
    "update_residual_gap": {"instances": 50},
})

print(f"{'claim':>22} {'instances':>10} {'violations':>11} {'worst margin':>14} {'skipped':>8}")
for check_id, res in results.items():
    print(
        f"{check_id:>22} {res.instances_tested:>10} {res.violations:>11} "
        f"{res.worst_margin:>14.3e} {res.skipped:>8}"
    )

assert all(res.passed for res in results.values())
print()
print("All claims verified: the loss floor, both rank caps, width-2 top-1")
print("reachability, the full-data and in-batch error-rank floors, and the")
print("strict gap between the rank-limited update and the error matrix.")
