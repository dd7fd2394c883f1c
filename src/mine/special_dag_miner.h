// Algorithm 1 (Special DAG), Section 3 of the paper.
//
// Setting: the process graph is acyclic and EVERY execution contains every
// activity exactly once. Under those assumptions the minimal conformal graph
// is unique, and this miner finds it in O(n^2 m) time:
//   1-2. collect precedence edges over one log pass,
//   3.   drop edges appearing in both directions (such pairs are
//        independent),
//   4.   transitive reduction.
// The steps run in the mining driver (mine/driver.h).

#ifndef PROCMINE_MINE_SPECIAL_DAG_MINER_H_
#define PROCMINE_MINE_SPECIAL_DAG_MINER_H_

#include "log/event_log.h"
#include "mine/driver.h"
#include "util/result.h"
#include "workflow/process_graph.h"

namespace procmine {

/// Options: noise threshold, threads, chunk size, provenance and budget, as
/// for every algorithm. Every execution must contain every activity exactly
/// once — the algorithm is only correct under that assumption (use
/// GeneralDagMiner otherwise).
using SpecialDagMinerOptions = AlgorithmOptions;

/// Mines the unique minimal conformal graph of a special-DAG log.
class SpecialDagMiner {
 public:
  explicit SpecialDagMiner(SpecialDagMinerOptions options = {})
      : options_(options) {}

  /// Returns a ProcessGraph whose vertex ids are the log's ActivityIds.
  /// Fails if the precondition is violated or the precedence graph is not
  /// reducible to a DAG (heavily corrupted input).
  Result<ProcessGraph> Mine(const EventLog& log) const;

 private:
  SpecialDagMinerOptions options_;
};

}  // namespace procmine

#endif  // PROCMINE_MINE_SPECIAL_DAG_MINER_H_
