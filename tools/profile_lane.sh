#!/usr/bin/env bash
# Profiles one perfbench lane with gprof and prints the top of the flat
# profile.
#
#   tools/profile_lane.sh <lane> [seconds] [seed]
#
#   lane     evolve | merge | cluster
#   seconds  run length (default 20)
#   seed     op-sequence seed (default 1)
#
# Configures perfbench/ into build-prof/ with -pg and a static link, runs
# the lane untraced inside build-prof/ (gmon.out lands there) and prints
# the lane's JSON result line, then gprof's flat profile. The link must be
# static: a dynamic -pg binary takes no samples inside shared libraries,
# so libm's functions (tanh, expm1, exp, log) would be missing from the
# profile without a trace. The static link warns once about getaddrinfo.
# A report, not a gate.
set -euo pipefail

usage="usage: tools/profile_lane.sh <evolve|merge|cluster> [seconds] [seed]"
lane="${1:?$usage}"
seconds="${2:-20}"
seed="${3:-1}"
cd "$(dirname "$0")/.."

jobs=$(nproc)
if (( jobs > 4 )); then jobs=4; fi
cmake -S perfbench -B build-prof -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-pg "-DCMAKE_EXE_LINKER_FLAGS=-pg -static" >&2
cmake --build build-prof -j "$jobs" >&2

cd build-prof
rm -f gmon.out
./mlcask_perfbench --workload "$lane" --seed "$seed" --seconds "$seconds" \
  --trace 0 | tail -n 1
gprof -b -p mlcask_perfbench gmon.out | sed -n '1,30p'
