// ProcessMiner: the library facade. Picks the right algorithm for the log
// (Algorithm 1 for exactly-once logs, Algorithm 2 for general acyclic logs,
// Algorithm 3 for logs with repeated activities) or runs a specific one, and
// can chain conformance checking and condition learning.
//
// Quickstart:
//   auto log = LogReader::ReadFile("orders.log").ValueOrDie();
//   ProcessMiner miner;
//   ProcessGraph model = miner.Mine(log).ValueOrDie();
//   std::cout << model.ToDot();

#ifndef PROCMINE_MINE_MINER_H_
#define PROCMINE_MINE_MINER_H_

#include "log/event_log.h"
#include "mine/condition_miner.h"
#include "mine/conformance.h"
#include "mine/driver.h"
#include "util/result.h"
#include "workflow/process_graph.h"

namespace procmine {

/// High-level mining entry point.
class ProcessMiner {
 public:
  explicit ProcessMiner(MinerOptions options = {}) : options_(options) {}

  /// Mines a process model graph. Vertex ids equal the log's ActivityIds.
  Result<ProcessGraph> Mine(const EventLog& log) const;

  /// Mines the graph, then learns edge conditions from recorded outputs.
  Result<AnnotatedProcess> MineWithConditions(
      const EventLog& log, ConditionMinerOptions condition_options = {}) const;

  /// The algorithm kAuto would select for this log.
  static MinerAlgorithm SelectAlgorithm(const EventLog& log);

 private:
  MinerOptions options_;
};

}  // namespace procmine

#endif  // PROCMINE_MINE_MINER_H_
