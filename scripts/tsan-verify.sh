#!/bin/sh
# Builds the suite under ThreadSanitizer and runs the tests that exercise
# the concurrent machinery: the obs metrics/span recorders, the thread
# pool (including the work-stealing chunked mode), the shared flat
# activity-set memo, the parallel-determinism sweep (threads x chunk-size), the
# sharded parallel log parser (ingest equivalence) and the streaming scan
# that shares its tokenizer and pairing step, the run-report
# builder (provenance recording + thread-count-invariant report bytes),
# the robustness layer (recovery-mode sharded quarantine merges,
# failpoints, budgets), the drift monitor + model registry (whose
# outputs must be identical however ingestion was sharded), the
# out-of-core segment store + windowed miner (window fan-out at
# threads {2,8} over the spill/evict path), and the telemetry sampler
# (a background thread snapshotting the registry while counter writers
# race it), and the streaming server (concurrent submitters multiplexing
# sessions onto the pump + thread pool, plus the socket front end's
# connection threads racing a hostile client), and the mining driver every
# mine runs through (the in-memory miners, the incremental miner, the
# driver-parity grid, and `explain`'s provenance, whose step 5-6 witness
# evidence the reduce shards fill and merge). Run whenever the parallel
# pipeline, src/mine/, src/obs/, the ingestion layer, the segment store, or
# src/serve/ changes.
#
# Usage: scripts/tsan-verify.sh [build-dir]   (default: build-tsan)

set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPROCMINE_SANITIZE=thread \
  -DPROCMINE_BUILD_BENCHMARKS=OFF \
  -DPROCMINE_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j \
  --target obs_metrics_test obs_trace_test thread_pool_test \
           flat_set_memo_test parallel_determinism_test \
           ingest_equivalence_test mapped_file_test report_test \
           recovery_test failpoint_test budget_test \
           drift_test registry_test segment_store_test telemetry_test \
           serve_test miner_test special_dag_miner_test \
           general_dag_miner_test cyclic_miner_test incremental_test \
           explain_test streaming_reader_test

ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'Obs|ThreadPool|FlatSetMemo|ParallelDeterminism|IngestEquivalence|MappedFile|RunReport|RecoveryMatrix|BinarySalvage|StreamingRecovery|RecoveryPolicy|Failpoint|RunBudget|MinerBudget|ReportBudget|DriftMonitor|SupportHighWatermark|Registry|SegmentStore|SegmentCodec|OocIdentity|Telemetry|Serve|Miner|GeneralDag|CyclicMiner|IncrementalMiner|Explain|TraceTest|StreamingReader'
