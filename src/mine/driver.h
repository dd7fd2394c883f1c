// The mining driver: the phase chain of the paper's Algorithms 1-3, written
// once, over an execution source.
//
// All three algorithms run the same steps (Sections 3-5): collect
// precedence edges with per-execution counters (steps 1-2), drop 2-cycles
// (step 3); Algorithm 1 then reduces the whole graph transitively, while
// Algorithm 2 drops intra-SCC edges (step 4) and keeps only the edges some
// execution's induced reduction needs (steps 5-6). Algorithm 3 is Algorithm
// 2 run on an occurrence-labeled log, merged back (steps 2-3 and 8).
//
// An ExecutionSource hands those steps EventLog windows in log order. A
// resident EventLog is a one-window source (passes see the log itself, by
// reference); a SegmentStore is a many-window source (mine/ooc_miner.cc).
// Every per-window merge is order-independent (counter sums, marked-set
// unions, first-encounter label interning in log order), so one chain
// yields byte-identical models, errors and DegradationInfo for any source,
// window size, thread count and chunk size.
//
// Entry points: ProcessMiner, SpecialDagMiner, GeneralDagMiner and
// CyclicMiner are defined in driver.cc over a one-window source;
// OutOfCoreMiner (mine/ooc_miner.cc) calls MineSource over a store;
// IncrementalMiner calls MineFromStatistics on its counters.

#ifndef PROCMINE_MINE_DRIVER_H_
#define PROCMINE_MINE_DRIVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "graph/digraph.h"
#include "log/event_log.h"
#include "mine/edge_collector.h"
#include "util/budget.h"
#include "util/result.h"
#include "workflow/process_graph.h"

namespace procmine {

class ProvenanceRecorder;

enum class MinerAlgorithm : int8_t {
  kAuto,        ///< choose from the log's shape
  kSpecialDag,  ///< Algorithm 1
  kGeneralDag,  ///< Algorithm 2
  kCyclic,      ///< Algorithm 3
};

/// The options every algorithm takes.
struct AlgorithmOptions {
  /// Section 6 noise threshold T (minimum executions per edge); 1 keeps all.
  int64_t noise_threshold = 1;
  /// Worker threads for the chunked per-execution mining passes (edge
  /// collection, occurrence relabeling, the step 5-6 reductions). 1 (the
  /// default) runs the sequential reference path; <= 0 selects hardware
  /// concurrency. Every thread count produces a byte-identical model: the
  /// chunk partition is a pure function of the log and these options, and
  /// the chunk merges (bitset OR, counter sum, marked-set union) are
  /// order-independent by construction. Runs over fewer than
  /// ThreadPool::kSmallInputInlineThreshold executions skip the pool.
  int num_threads = 1;
  /// Executions per work-stealing chunk (0 = default, 4 chunks per thread;
  /// see PlanChunks). Any value produces the same model — a tuning knob
  /// only: smaller chunks rebalance better against skewed executions,
  /// larger chunks amortize per-chunk accumulators.
  size_t chunk_size = 0;
  /// Optional edge-provenance sink (see mine/provenance.h; obs/report.h
  /// builds full run reports on top of it). The cyclic miner records in the
  /// occurrence-labeled id space ("A#1", "A#2", ...) and attaches the
  /// labeled-to-base mapping. Not owned; must outlive Mine(). Null (the
  /// default) disables recording at the cost of one branch per site.
  ProvenanceRecorder* provenance = nullptr;
  /// Optional run budget, checked at phase boundaries and every ~1024
  /// executions inside the step 5-6 reduction pass. On exhaustion the miner
  /// returns the best model built so far instead of finishing — never an
  /// error — and records what was cut in `degradation`. The facades
  /// (ProcessMiner, OutOfCoreMiner) also apply max_executions: only the
  /// first N executions are mined. Both pointers are borrowed and may be
  /// null (no budgeting).
  RunBudget* budget = nullptr;
  DegradationInfo* degradation = nullptr;
};

/// The facade's options: the shared set plus the algorithm to run.
struct MinerOptions : AlgorithmOptions {
  MinerAlgorithm algorithm = MinerAlgorithm::kAuto;
};

namespace mine_internal {

/// Which pass of a run visits a source. Only a windowed source tells them
/// apart (its spans, telemetry phases and window statistics are per pass).
enum class SourcePass : int8_t { kSelect, kValidate, kLabel, kCollect, kReduce };

/// The executions of one log, visited as EventLog windows in log order.
/// Every window's activity ids refer to dictionary().
class ExecutionSource {
 public:
  /// Receives one window; returns whether to keep visiting.
  using WindowFn = std::function<Result<bool>(const EventLog& window)>;

  ExecutionSource() = default;
  virtual ~ExecutionSource() = default;
  ExecutionSource(const ExecutionSource&) = delete;
  ExecutionSource& operator=(const ExecutionSource&) = delete;
  ExecutionSource(ExecutionSource&&) = delete;
  ExecutionSource& operator=(ExecutionSource&&) = delete;

  virtual const ActivityDictionary& dictionary() const = 0;

  /// Executions a pass visits.
  virtual int64_t num_executions() const = 0;

  /// Fixes the run to the first `executions` executions (all of them, or
  /// the --max-executions prefix). Called at most once, before any pass.
  virtual void Plan(int64_t executions) = 0;

  /// Applies `fn` to each window in log order until it returns false.
  virtual Status ForEachWindow(SourcePass pass, const WindowFn& fn) = 0;

  /// The whole log when it is resident as one window, else null.
  virtual const EventLog* resident_log() const { return nullptr; }
};

/// The facade: rejects an empty source, applies the --max-executions cut
/// (recorded as a "miner.input" degradation), resolves kAuto, then runs the
/// selected algorithm.
Result<ProcessGraph> MineSource(ExecutionSource* source,
                                const MinerOptions& options);

/// Distinct sorted activity sets -> executions seen with that set.
using ActivitySetCounts = std::map<std::vector<ActivityId>, int64_t>;

/// Algorithm 2 over sufficient statistics instead of a log: step 2's
/// per-execution counters and the distinct activity sets, each set reduced
/// once (steps 5-6 depend only on the set). What IncrementalMiner queries.
Result<DirectedGraph> MineFromStatistics(const EdgeCounts& counts, NodeId n,
                                         int64_t noise_threshold,
                                         const ActivitySetCounts& sets);

}  // namespace mine_internal
}  // namespace procmine

#endif  // PROCMINE_MINE_DRIVER_H_
