// Algorithm 3 (Cyclic Graphs), Section 5 of the paper.
//
// Cycles make repeated appearances of an activity legitimate, which breaks
// Algorithms 1-2. The fix: label the k-th occurrence of activity A in an
// execution as the distinct pseudo-activity A#k, run the Algorithm 2
// machinery on the labeled log (which is repeat-free by construction), and
// finally merge the equivalent sets {A#1, A#2, ...} back into A. An edge
// (A, B) appears in the merged graph iff some edge connected an instance of
// A to an instance of B with A != B (step 8: edges between instances of the
// SAME activity are dropped by the merge). The steps run in the mining
// driver (mine/driver.h); this file holds the occurrence labeling.

#ifndef PROCMINE_MINE_CYCLIC_MINER_H_
#define PROCMINE_MINE_CYCLIC_MINER_H_

#include <cstdint>
#include <vector>

#include "log/event_log.h"
#include "mine/driver.h"
#include "util/result.h"
#include "workflow/process_graph.h"

namespace procmine {

class ThreadPool;

/// Occurrence labeling: the table "k-th occurrence of A is pseudo-activity
/// A#k", built one execution at a time so a windowed source can stream pass
/// 1 without materializing the labeled log. Observe() in log order interns
/// labels in first-encounter order; Relabel() then rewrites any window
/// against the finished table.
class OccurrenceLabeler {
 public:
  /// Pass 1: extends the label table with `exec`'s occurrences. `base_dict`
  /// names the activity ids `exec` uses; call in log order. Single-threaded.
  void Observe(const Execution& exec, const ActivityDictionary& base_dict);

  /// Pass 2: `log` rewritten into the labeled id space, in parallel shards
  /// when `pool` is non-null (byte-identical for any shard count). Every
  /// occurrence must already have been Observed.
  EventLog Relabel(const EventLog& log, ThreadPool* pool) const;

  /// The labeled dictionary ("A#1", "B#1", "A#2", ...).
  const ActivityDictionary& labeled_dictionary() const { return labeled_dict_; }

  /// Labeled ActivityId -> base ActivityId.
  const std::vector<ActivityId>& labeled_to_base() const {
    return labeled_to_base_;
  }

 private:
  ActivityDictionary labeled_dict_;
  /// label_ids_[a][k-1] is the labeled id of the k-th occurrence of a.
  std::vector<std::vector<ActivityId>> label_ids_;
  std::vector<ActivityId> labeled_to_base_;
  std::vector<int64_t> occurrence_;  // per-exec scratch, reset via touched_
  std::vector<size_t> touched_;
};

/// Options: noise threshold, threads, chunk size, provenance (recorded in
/// the labeled id space) and budget, as for every algorithm.
using CyclicMinerOptions = AlgorithmOptions;

/// Mines a (possibly cyclic) conformal graph via instance labeling.
class CyclicMiner {
 public:
  explicit CyclicMiner(CyclicMinerOptions options = {}) : options_(options) {}

  /// Returns a ProcessGraph whose vertex ids are the log's ActivityIds.
  Result<ProcessGraph> Mine(const EventLog& log) const;

  /// Exposed for tests and the worked paper example (Figure 6): the labeled
  /// intermediate log, with occurrence labels "A#1", "A#2", ... and a
  /// parallel map from labeled ActivityId to original ActivityId. The label
  /// dictionary is built in one sequential pass; the executions are
  /// rewritten in parallel shards when `pool` is non-null (byte-identical to
  /// the sequential path for any thread count).
  static EventLog LabelOccurrences(const EventLog& log,
                                   std::vector<ActivityId>* labeled_to_base,
                                   ThreadPool* pool = nullptr);

 private:
  CyclicMinerOptions options_;
};

}  // namespace procmine

#endif  // PROCMINE_MINE_CYCLIC_MINER_H_
