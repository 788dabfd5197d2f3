#!/usr/bin/env bash
# Repo-specific invariants that neither the compiler nor clang-tidy
# enforces. Run from anywhere; CI runs it on every PR. Exits nonzero
# with one line per violation.
#
#  1. src/ must not name raw std synchronization primitives. All
#     locking goes through rrq::Mutex / rrq::MutexLock / rrq::CondVar
#     (src/util/thread_annotations.h) so Clang thread-safety analysis
#     sees every acquire/release. Tests and benches are exempt: they
#     synchronize their own harness state and gain nothing from
#     annotations.
#  2. src/ headers and sources must not include <mutex> or
#     <condition_variable> directly; the wrapper owns those includes.
#  3. Bench binaries must publish machine-readable results through
#     bench::WriteBenchJson (bench/bench_util.h), never by opening
#     .json files themselves — the helper is the one place that decides
#     where BENCH_*.json lands: the bench's working directory. Nothing
#     may name RRQ_REPO_ROOT, the old compile definition that sent
#     every run's output over the committed BENCH_*.json records.
#  4. One event loop (DESIGN.md §13): raw epoll_* calls anywhere in
#     src/ are confined to src/net/tcp_server.cc, the translation unit
#     that holds the loop, and src/ uses no kernel submission ring at
#     all: the ring backend was measured, won nowhere, and was deleted.
#     (The bracketed letters keep this script from matching itself.)
#  5. One session recovery loop (DESIGN.md §10): calls to the clerk's
#     Connect() and Rereceive() in src/ are confined to
#     src/client/reliable_client.cc, the paper's Fig 2 loop that every
#     multi-request client (ClerkPool, StreamingClient) runs. src/testing/ is
#     exempt: the crash-sweep harness drives a bare clerk on purpose.
#  6. One cross-shard commit protocol (DESIGN.md §9): in src/queue/,
#     only QueueRepository::BufferTxnOps enlists a participant (the
#     repository itself, once per transaction), a prepare record is
#     written only by Shard::Prepare (re-logged by Checkpoint, read by
#     RecoverShard), and Shard::Prepare is called only by the facade's
#     Prepare (an outside coordinator's 2PC): CommitAcross, the one
#     spanning commit, logs every part in its decision and prepares
#     nothing.
set -uo pipefail
cd "$(dirname "$0")/.."

fail=0
violation() {
  echo "invariant violation: $1"
  echo "$2" | sed 's/^/    /'
  fail=1
}

# --- 1. Raw std primitives in src/ ---------------------------------
hits=$(grep -rnE 'std::(mutex|recursive_mutex|shared_mutex|timed_mutex|condition_variable|lock_guard|unique_lock|scoped_lock|shared_lock)\b' \
  src/ --include='*.h' --include='*.cc' \
  | grep -v '^src/util/thread_annotations.h:' || true)
if [[ -n "$hits" ]]; then
  violation "raw std synchronization primitive in src/ (use rrq::Mutex / rrq::MutexLock / rrq::CondVar from util/thread_annotations.h)" "$hits"
fi

# --- 2. Direct <mutex>/<condition_variable> includes in src/ -------
hits=$(grep -rnE '#include <(mutex|condition_variable|shared_mutex)>' \
  src/ --include='*.h' --include='*.cc' \
  | grep -v '^src/util/thread_annotations.h:' || true)
if [[ -n "$hits" ]]; then
  violation "direct <mutex>/<condition_variable> include in src/ (util/thread_annotations.h owns these)" "$hits"
fi

# --- 3. Bench JSON goes through bench::WriteBenchJson --------------
# A bench that opens a .json file itself bypasses the one output rule
# in WriteBenchJson.
hits=$(grep -rnE '(fopen|ofstream)[^;]*\.json' bench/ --include='*.cc' || true)
if [[ -n "$hits" ]]; then
  violation "bench writes a .json file directly (use bench::WriteBenchJson from bench/bench_util.h)" "$hits"
fi
# Every bench that assembles a JSON payload must hand it to the helper.
for f in bench/bench_*.cc; do
  if grep -qE '"experiment"' "$f" && ! grep -q 'WriteBenchJson' "$f"; then
    violation "bench builds a JSON payload but never calls bench::WriteBenchJson" "$f"
  fi
done
# Nothing under bench/ or src/, and no CMakeLists.txt, may point bench
# output back at the repository.
hits=$( { grep -rn --exclude=CMakeLists.txt 'RRQ_REPO_ROOT' bench/ src/;
  find . -name CMakeLists.txt -not -path './build*' -not -path './.bench_build/*' \
    -exec grep -Hn 'RRQ_REPO_ROOT' {} +; } || true)
if [[ -n "$hits" ]]; then
  violation "RRQ_REPO_ROOT named (bench JSON goes to the working directory, not the repo root)" "$hits"
fi

# --- 4. One event loop ----------------------------------------------
hits=$(grep -rnE '\bepoll_(create1?|ctl|wait|pwait2?)\s*\(' \
  src/ --include='*.h' --include='*.cc' \
  | grep -v '^src/net/tcp_server\.cc:' || true)
if [[ -n "$hits" ]]; then
  violation "raw epoll_* call outside src/net/tcp_server.cc (the one event loop, DESIGN.md §13)" "$hits"
fi
hits=$(grep -rnE 'io_[u]ring|IO[R]ING_|lib[u]ring' \
  src/ --include='*.h' --include='*.cc' || true)
if [[ -n "$hits" ]]; then
  violation "kernel submission ring in src/ (the transport has one epoll loop, DESIGN.md §13)" "$hits"
fi

# --- 5. One session recovery loop -----------------------------------
hits=$(grep -rnE '(->|\.)(Co[n]nect\(\)|Re[r]eceive\()' \
  src/ --include='*.h' --include='*.cc' \
  | grep -vE '^src/(client/reliable_client\.cc:|testing/)' || true)
if [[ -n "$hits" ]]; then
  violation "clerk Connect()/Rereceive() call outside src/client/reliable_client.cc (the one session recovery loop, DESIGN.md §10)" "$hits"
fi

# --- 6. One cross-shard commit protocol ----------------------------
# Prints "<function> <file>:<line>: <text>" for each src/queue/*.cc line
# matching $1, where <function> is the last column-0 QueueRepository
# definition above it (empty before the first).
in_function() {
  awk -v pat="$1" '
    /^[A-Za-z].*QueueRepository::[A-Za-z_:]+\(/ {
      match($0, /QueueRepository::[A-Za-z_:]+\(/)
      fn = substr($0, RSTART, RLENGTH - 1)
    }
    $0 ~ pat { print fn " " FILENAME ":" FNR ": " $0 }' src/queue/*.cc
}
hits=$(in_function '(->|\.)Enlist\(' \
  | grep -v '^QueueRepository::BufferTxnOps ' || true)
if [[ -n "$hits" ]]; then
  violation "Enlist outside QueueRepository::BufferTxnOps in src/queue/ (a transaction enlists the repository once, DESIGN.md §9)" "$hits"
fi
hits=$(in_function 'kRecPrepare' | grep -v 'constexpr unsigned char kRecPrepare' \
  | grep -vE '^QueueRepository::(Shard::Prepare|Checkpoint|RecoverShard) ' || true)
if [[ -n "$hits" ]]; then
  violation "prepare record outside Shard::Prepare (one cross-shard commit protocol, DESIGN.md §9)" "$hits"
fi
hits=$(in_function '(->|\.)Prepare\(' \
  | grep -v '^QueueRepository::Prepare ' || true)
if [[ -n "$hits" ]]; then
  violation "Shard::Prepare called outside the facade's Prepare (one cross-shard commit protocol, DESIGN.md §9)" "$hits"
fi

# --- Informational: annotation coverage ----------------------------
# The acceptance bar for the thread-safety work: GUARDED_BY use should
# be on the order of the number of Mutex members. Printed, not gated —
# new code legitimately shifts the ratio.
mutexes=$(grep -rhoE '(^|[^:])\bMutex [a-z_]+_?;' src/ --include='*.h' --include='*.cc' | wc -l)
guarded=$(grep -rho 'GUARDED_BY' src/ --include='*.h' --include='*.cc' \
  --exclude=thread_annotations.h | wc -l)
echo "info: ${mutexes} Mutex members, ${guarded} GUARDED_BY annotations in src/"

if [[ "$fail" -ne 0 ]]; then
  echo "check_invariants: FAILED"
  exit 1
fi
echo "check_invariants: OK"
