// Out-of-core mining: the three paper algorithms over a SegmentStore, one
// bounded window at a time.
//
// OutOfCoreMiner runs the one mining driver (mine/driver.h) over the store
// as a many-window source: each pass (select, validate, label, collect,
// reduce) visits the store's segments in order, one decoded window at a
// time, and folds per-window results into the same order-independent
// accumulators ProcessMiner uses on a resident log. The model, the errors
// and any budget DegradationInfo are therefore byte-identical to
// ProcessMiner::Mine on the materialized log, at any threads x chunk-size x
// segment-size, while resident memory stays bounded by the store's LRU
// cache plus one window's accumulators. Algorithm 3 streams its label pass
// over the store and relabels each window as a later pass visits it, so the
// labeled log is never whole in memory.
//
// Unsupported: provenance recording (run reports index executions globally
// and want the whole log resident — use the in-memory path for those).

#ifndef PROCMINE_MINE_OOC_MINER_H_
#define PROCMINE_MINE_OOC_MINER_H_

#include <cstdint>

#include "log/segment_store.h"
#include "mine/miner.h"
#include "util/result.h"
#include "workflow/process_graph.h"

namespace procmine {

/// What one out-of-core run touched (window loads are counted in the collect
/// and reduce passes, so a general-DAG run over S segments reports ~2S).
struct OocMineStats {
  int64_t windows = 0;     ///< window visits of the collect and reduce passes
  int64_t executions = 0;  ///< executions mined (after any --max-executions cap)
  int64_t events = 0;      ///< raw events mined (2 x instances)
};

/// Windowed miner over a segment store.
class OutOfCoreMiner {
 public:
  explicit OutOfCoreMiner(MinerOptions options = MinerOptions())
      : options_(options) {}

  /// Mines `store`'s executions. The store is mutated only through its
  /// resident cache. Returns the same model (and the same errors, and the
  /// same budget degradations) as ProcessMiner::Mine(store->Materialize()).
  Result<ProcessGraph> Mine(SegmentStore* store,
                            OocMineStats* stats = nullptr) const;

 private:
  MinerOptions options_;
};

}  // namespace procmine

#endif  // PROCMINE_MINE_OOC_MINER_H_
