// Algorithm 2 (General DAG), Section 4 of the paper.
//
// Setting: the process graph is acyclic but executions need not contain all
// activities. Two passes over the log:
//   1-2. collect precedence edges,
//   3.   drop 2-cycles,
//   4.   drop all edges inside strongly connected components (paths of
//        followings both ways => independent),
//   5.   for each execution, transitively reduce the induced subgraph and
//        mark the surviving edges,
//   6.   drop unmarked edges.
// The result is a conformal graph (Theorem 5); minimality is heuristic.
// The steps run in the mining driver (mine/driver.h).

#ifndef PROCMINE_MINE_GENERAL_DAG_MINER_H_
#define PROCMINE_MINE_GENERAL_DAG_MINER_H_

#include "log/event_log.h"
#include "mine/driver.h"
#include "util/result.h"
#include "workflow/process_graph.h"

namespace procmine {

/// Options: noise threshold, threads, chunk size, provenance and budget, as
/// for every algorithm. A budget cut before or during steps 5-6 returns the
/// conformal (but unminimized) post-SCC DAG. The step 5-6 reductions are
/// memoized by activity set in one memo all workers share (executions repeat
/// heavily in real logs; the reduction depends only on the set).
using GeneralDagMinerOptions = AlgorithmOptions;

/// Mines a conformal DAG from a general acyclic log.
class GeneralDagMiner {
 public:
  explicit GeneralDagMiner(GeneralDagMinerOptions options = {})
      : options_(options) {}

  /// Returns a ProcessGraph whose vertex ids are the log's ActivityIds.
  /// Executions with repeated activities are rejected (use CyclicMiner).
  Result<ProcessGraph> Mine(const EventLog& log) const;

 private:
  GeneralDagMinerOptions options_;
};

}  // namespace procmine

#endif  // PROCMINE_MINE_GENERAL_DAG_MINER_H_
