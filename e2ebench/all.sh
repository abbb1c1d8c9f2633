#!/usr/bin/env bash
# Runs every workload untraced, then one traced run that covers all three.
# Run it from the root of the checkout:
#
#   bash e2ebench/all.sh [seed] [seconds]
set -euo pipefail
here=$(dirname "${BASH_SOURCE[0]}")
seed=${1:-1}
secs=${2:-30}
for w in report-paper sim-datacenter serve-learn; do
	bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$secs" --trace 0
done
bash "$here/run.sh" --workload report-paper --seed "$seed" --seconds "$secs" --trace 1
