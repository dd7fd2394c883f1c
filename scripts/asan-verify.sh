#!/bin/sh
# Builds the out-of-core suites under AddressSanitizer + UBSan and runs
# them: the segment store codec (varint/zigzag decode over torn and
# corrupted inputs is exactly where an out-of-bounds read would hide),
# the spill/evict path (LRU cache frees decoded windows while shared_ptr
# handles may still be live), the windowed out-of-core miner, the
# recovery/salvage machinery it reuses, the telemetry sampler's
# /proc parsing + ring/serialization paths, and the streaming server's
# wire/journal decoders (length-prefixed frames and crc-framed journal
# records parsed from hostile or torn byte streams), and the mining driver
# every mine runs through (the in-memory miners, the incremental miner, the
# parallel-determinism sweep, the driver-parity grid and `explain`'s
# provenance rendering), with the flat activity-set memo and the
# induced-reduction kernel its reduce pass runs on (pooled keys and
# word-packed rows, where an off-by-one word would hide), and the text
# decoder (the one line tokenizer and START/END pairing step that the
# sharded parser and the mmap streaming scan share, whose name views alias
# the input). Run whenever src/log/segment_store, src/mine/,
# src/obs/telemetry, src/serve/, the text reader, or the binary-log salvage
# path changes.
#
# Usage: scripts/asan-verify.sh [build-dir]   (default: build-asan)

set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPROCMINE_SANITIZE=address \
  -DPROCMINE_BUILD_BENCHMARKS=OFF \
  -DPROCMINE_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j \
  --target segment_store_test binary_log_test recovery_test \
           format_fuzz_test budget_test telemetry_test serve_test \
           miner_test special_dag_miner_test general_dag_miner_test \
           cyclic_miner_test incremental_test parallel_determinism_test \
           explain_test flat_set_memo_test bit_matrix_test \
           streaming_reader_test ingest_equivalence_test reader_writer_test

ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'SegmentStore|SegmentCodec|OocIdentity|BinaryLog|RecoveryMatrix|BinarySalvage|StreamingRecovery|RecoveryPolicy|FormatFuzz|FormatGarbage|RunBudget|Telemetry|Serve|Miner|GeneralDag|CyclicMiner|IncrementalMiner|ParallelDeterminism|Explain|TraceTest|FlatSetMemo|InducedReducer|StreamingReader|IngestEquivalence|LogReader'
