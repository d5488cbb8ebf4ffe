#!/usr/bin/env bash
# Sanitizer sweeps over the simulator core.
#
# Pass 1 (TSan): configures a ThreadSanitizer side build (build-tsan/,
# separate from the main build/) and runs the parallel-sweep test suite
# under TSan, then the fault suite (transient kill/revive events mutate the
# shared dead-port mask, and the faulted --jobs sweep exercises per-thread
# fault-set construction), then the intra-point parallel engine suite and a
# faulted+traced --jobs x --point-jobs sweep (shard workers, mailbox
# hand-off, barrier merges; DESIGN.md §12). Any data race in the thread
# pool, the sweep reduction, the fault layer, or the sharded engine fails
# the run.
#
# Pass 2 (ASan+UBSan): a second side build (build-asan/,
# HXWAR_SANITIZE=address,undefined) runs the index-core memory suites —
# packet slab, router SoA state, channel rings — plus a --scale=paper smoke
# point, so out-of-bounds slot arithmetic or use-after-recycle in the dense
# ID-indexed storage fails loudly at full network size. A high-fault-rate
# ftar sweep rides along: 20% failed links under --fault-policy=escape
# drives the masked-BFS escape tables, escape-VC escalation, and the
# partition-tolerant fault-set builder through the sanitizers. So does a
# windowed flight-recorder sweep validated by timeline_check (DESIGN.md §14).
#
# Usage: tools/run_tsan_sweep.sh [extra gtest args...]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-tsan"
BUILD_ASAN="${ROOT}/build-asan"

cmake -B "${BUILD}" -S "${ROOT}" -DHXWAR_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD}" --target parallel_sweep_test fault_test event_queue_test \
  par_sim_test hxsim -j"$(nproc)"

# TSAN_OPTIONS defaults: fail loudly on the first race.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"

# Calendar-queue property suite first: each sweep worker owns a queue, so the
# structure itself must be clean before checking the cross-thread layers.
"${BUILD}/tests/event_queue_test" "$@"
echo "event_queue_test passed under ThreadSanitizer"

"${BUILD}/tests/parallel_sweep_test" "$@"
echo "parallel_sweep_test passed under ThreadSanitizer"

# Transient-fault sweep: the kill/revive schedule plus the multi-threaded
# faulted sweep (FaultSweep.JobsInvariantOnFaultedNetwork runs jobs=4).
# Death tests fork and are meaningless under TSan; skip them.
"${BUILD}/tests/fault_test" --gtest_filter='-*Death*' "$@"
echo "fault_test (transient-fault sweep) passed under ThreadSanitizer"

# Traced multi-threaded sweep: per-point NetObservers (trace buffers, counter
# slots, sampler rows) must stay thread-local until the point-ordered merge.
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "${OBS_DIR}"' EXIT
"${BUILD}/tools/hxsim" --widths=3,3 --terminals=2 --routing=dimwar \
  --experiment=sweep --loads=0.1,0.2 --jobs=4 \
  --warmup-window=300 --warmup-windows=6 --measure-window=800 --drain-window=2000 \
  --trace-sample=1 --sample-interval=200 \
  --trace-out="${OBS_DIR}/sweep.trace.json" \
  --metrics-json="${OBS_DIR}/sweep.metrics.json" > /dev/null
echo "traced --jobs=4 sweep passed under ThreadSanitizer"

# Intra-point parallel engine: the sharded window loop, mailbox hand-off, and
# barrier merge paths of sim/par (shard workers + control sim + coordinator).
# ParSim.BitIdenticalWhilePacketPoolsGrow grows every lane's packet pool while
# other lanes' workers resolve refs into it.
"${BUILD}/tests/par_sim_test" "$@"
echo "par_sim_test passed under ThreadSanitizer"

# The composed axes — sweep workers each driving a 4-shard engine — through
# the real binary, traced, faulted, and windowed (the flight recorder's
# kEpsControl closes read shard-updated counters and walk Router SoA state
# with the workers parked at the barrier) so observer merge, fault-mask
# reads, and the recorder's frozen-state walks all cross the shard boundary.
"${BUILD}/tools/hxsim" --widths=3,3 --terminals=2 --routing=omniwar \
  --experiment=sweep --loads=0.1,0.2 --jobs=2 --point-jobs=4 \
  --fault-rate=0.05 --fault-policy=drop \
  --trace-sample=1 --sample-interval=200 \
  --warmup-window=300 --warmup-windows=6 --measure-window=800 --drain-window=2000 \
  --window-ticks=400 --timeline-out="${OBS_DIR}/par.timeline.jsonl" \
  --trace-out="${OBS_DIR}/par.trace.json" \
  --metrics-json="${OBS_DIR}/par.metrics.json" > /dev/null
echo "faulted+traced+timeline --jobs=2 --point-jobs=4 sweep passed under ThreadSanitizer"

# ---- ASan+UBSan pass: index-core memory discipline -------------------------

cmake -B "${BUILD_ASAN}" -S "${ROOT}" -DHXWAR_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD_ASAN}" --target packet_pool_test net_test channel_test \
  router_test hxsim timeline_check -j"$(nproc)"

export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1 detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"

# The slab and SoA suites: slot-ref arithmetic, recycle liveness, ring
# growth/linearize, dense component arenas. Death tests fork; skip them.
for t in packet_pool_test net_test channel_test router_test; do
  "${BUILD_ASAN}/tests/${t}" --gtest_filter='-*Death*' "$@"
  echo "${t} passed under ASan+UBSan"
done

# High-fault-rate escape routing: ftar at 20% failed links with the escape
# fault policy. The degraded network may not even be connected at this rate —
# escape tolerates partitions and attributes the unreachable-destination
# drops — so the masked-BFS distance tables, escape-VC escalation, and the
# partition census all run with sanitizers watching.
"${BUILD_ASAN}/tools/hxsim" --widths=4,4 --terminals=2 --routing=ftar \
  --experiment=sweep --loads=0.05,0.10 --jobs=2 \
  --fault-rate=0.20 --fault-policy=escape \
  --warmup-window=300 --warmup-windows=6 --measure-window=800 \
  --drain-window=3000 > /dev/null
echo "high-fault-rate ftar escape sweep passed under ASan+UBSan"

# Windowed flight-recorder sweep under ASan+UBSan: the recorder's snapshot
# tables, link-walk deltas, and JSONL serialization, validated end to end by
# timeline_check (itself built with the sanitizers, so the JSON parser runs
# hot too).
"${BUILD_ASAN}/tools/hxsim" --widths=3,3 --terminals=2 --routing=dal \
  --experiment=sweep --loads=0.2 --point-jobs=4 \
  --fault-links=0:2 --fault-at=500 --fault-until=1400 \
  --warmup-window=300 --warmup-windows=6 --measure-window=800 \
  --drain-window=2000 --window-ticks=400 \
  --timeline-out="${OBS_DIR}/asan.timeline.jsonl" > /dev/null
"${BUILD_ASAN}/tools/timeline_check" "${OBS_DIR}/asan.timeline.jsonl" --min-windows=3
echo "windowed flight-recorder sweep + timeline_check passed under ASan+UBSan"

# Paper-scale smoke: build the 4,096-node network and push one reduced
# fig06 point through it, so index arithmetic is exercised at full size.
"${BUILD_ASAN}/tools/hxsim" --scale=paper --routing=omniwar --pattern=ur \
  --experiment=sweep --loads=0.05 --jobs=1 \
  --warmup-window=1000 --warmup-windows=2 --measure-window=1000 \
  --drain-window=20000 > /dev/null
echo "--scale=paper smoke point passed under ASan+UBSan"
