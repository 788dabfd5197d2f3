#!/usr/bin/env bash
# Builds the project under ThreadSanitizer and runs the concurrency-
# sensitive tests: the WAL group-commit path (leader syncs while other
# committers append), the repository (including the sharded cross-
# shard commit protocol, per-shard replication tickets, and parallel
# shard recovery), the KV store (standalone and hosted on the
# repository), the forces one request costs through rrqd's wiring
# (force_count_test), the client/server stack, the TCP
# transport (event loop vs reply-flushing workers, clerk vs daemon-kill
# races), and the replication pipeline (sender thread vs ack-gated
# replies, applier vs promotion, the two-daemon failover, the frozen-
# backup output-commit check).
# Usage: scripts/tsan.sh [ctest -R regex]
# CXX/CC are honored (e.g. CXX=clang++-18 scripts/tsan.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-tsan
FILTER="${1:-log_test|frame_test|group_commit_test|queue_repository_test|queue_property_test|replication_test|kv_store_test|txn_manager_test|streaming_client_test|server_test|crash_sweep_test|force_count_test|tcp_transport_test|protocol_fuzz_test|remote_exactly_once_test|clerk_test|clerk_pool_test|clerk_pool_exactly_once_test|thread_annotations_test|replication_log_test|repl_wire_test|repl_pipeline_test|applier_crash_sweep_test|replicated_failover_test|ack_gate_test|ack_output_commit_test}"

COMPILER_ARGS=()
[[ -n "${CXX:-}" ]] && COMPILER_ARGS+=("-DCMAKE_CXX_COMPILER=${CXX}")
[[ -n "${CC:-}" ]] && COMPILER_ARGS+=("-DCMAKE_C_COMPILER=${CC}")

cmake -B "$BUILD_DIR" -S . -DRRQ_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo "${COMPILER_ARGS[@]}"
cmake --build "$BUILD_DIR" -j
# Full sweep: every crash index in every mode, torn writes included.
RRQ_CRASH_SWEEP_FULL=1 ctest --test-dir "$BUILD_DIR" --output-on-failure -R "$FILTER"
