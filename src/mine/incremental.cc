#include "mine/incremental.h"

#include <algorithm>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace procmine {

namespace {

// The sorted activity set of `exec`; InvalidArgument when the execution is
// empty or repeats an activity.
Result<std::vector<ActivityId>> ActivitySet(const Execution& exec) {
  if (exec.empty()) {
    return Status::InvalidArgument("empty execution");
  }
  std::vector<ActivityId> present = exec.Sequence();
  std::sort(present.begin(), present.end());
  if (std::adjacent_find(present.begin(), present.end()) != present.end()) {
    return Status::InvalidArgument(
        "execution repeats an activity; the incremental miner covers the "
        "acyclic setting (use CyclicMiner in batch mode)");
  }
  return present;
}

}  // namespace

Status IncrementalMiner::AddSequence(
    const std::vector<std::string>& sequence) {
  std::vector<ActivityId> ids;
  ids.reserve(sequence.size());
  for (const std::string& name : sequence) ids.push_back(dict_.Intern(name));
  return Absorb(Execution::FromSequence(
      StrFormat("stream_%06zu", num_executions_), ids));
}

Status IncrementalMiner::AddExecution(const Execution& exec,
                                      const ActivityDictionary& dict) {
  Execution remapped(exec.name());
  for (ActivityInstance inst : exec.instances()) {
    inst.activity = dict_.Intern(dict.Name(inst.activity));
    remapped.Append(std::move(inst));
  }
  return Absorb(remapped);
}

Status IncrementalMiner::AddLog(const EventLog& log) {
  for (const Execution& exec : log.executions()) {
    PROCMINE_RETURN_NOT_OK(AddExecution(exec, log.dictionary()));
  }
  return Status::OK();
}

Status IncrementalMiner::AddLogBudgeted(const EventLog& log, RunBudget* budget,
                                        DegradationInfo* degradation,
                                        int64_t* applied) {
  if (applied != nullptr) *applied = 0;
  ProbeTicker ticker(64);
  const size_t total = log.num_executions();
  for (size_t i = 0; i < total; ++i) {
    if (budget != nullptr) {
      auto remaining = [&] {
        return StrFormat("%zu of %zu batch executions not absorbed",
                         total - i, total);
      };
      // The execution cap is checked on every iteration (it is exact and
      // cheap); the clock/rss probes are amortized through the ticker,
      // except the first iteration so a budget exhausted before the batch
      // cuts at zero.
      if (budget->OverExecutionLimit(static_cast<int64_t>(num_executions_) +
                                     1)) {
        if (degradation != nullptr && !degradation->degraded) {
          degradation->degraded = true;
          degradation->resource = BudgetResource::kExecutions;
          degradation->cut_phase = "incremental.absorb";
          degradation->dropped = remaining();
        }
        break;
      }
      if ((i == 0 || ticker.Due()) &&
          BudgetCut(budget, degradation, "incremental.absorb", remaining())) {
        break;
      }
    }
    PROCMINE_RETURN_NOT_OK(AddExecution(log.execution(i), log.dictionary()));
    if (applied != nullptr) ++*applied;
  }
  return Status::OK();
}

Status IncrementalMiner::RemoveSequence(
    const std::vector<std::string>& sequence) {
  std::vector<ActivityId> ids;
  ids.reserve(sequence.size());
  for (const std::string& name : sequence) {
    PROCMINE_ASSIGN_OR_RETURN(ActivityId id, dict_.Find(name));
    ids.push_back(id);
  }
  return Evict(Execution::FromSequence("evicted", ids));
}

Status IncrementalMiner::RemoveExecution(const Execution& exec,
                                         const ActivityDictionary& dict) {
  Execution remapped(exec.name());
  for (ActivityInstance inst : exec.instances()) {
    PROCMINE_ASSIGN_OR_RETURN(inst.activity,
                              dict_.Find(dict.Name(inst.activity)));
    remapped.Append(std::move(inst));
  }
  return Evict(remapped);
}

Status IncrementalMiner::Absorb(const Execution& exec) {
  PROCMINE_SPAN("incremental.absorb");
  PROCMINE_ASSIGN_OR_RETURN(std::vector<ActivityId> present,
                            ActivitySet(exec));
  std::unordered_set<uint64_t> seen_pairs;
  ForEachPrecedencePair(exec, &seen_pairs,
                        [this](uint64_t key) { ++counts_[key]; });
  ++set_counts_[std::move(present)];
  ++num_executions_;
  ++version_;
  static obs::Counter* absorbed =
      obs::MetricsRegistry::Get().GetCounter("incremental.executions_absorbed");
  absorbed->Increment();
  return Status::OK();
}

Status IncrementalMiner::Evict(const Execution& exec) {
  PROCMINE_SPAN("incremental.evict");
  PROCMINE_ASSIGN_OR_RETURN(std::vector<ActivityId> present,
                            ActivitySet(exec));
  // Same pair enumeration as Absorb, so eviction undoes exactly what the
  // matching Absorb contributed.
  std::unordered_set<uint64_t> seen_pairs;
  ForEachPrecedencePair(exec, &seen_pairs, [](uint64_t) {});

  // Validate before mutating: a failed eviction must leave the state
  // untouched.
  auto set_it = set_counts_.find(present);
  if (set_it == set_counts_.end() || set_it->second <= 0) {
    return Status::FailedPrecondition(
        "eviction of an execution whose activity set was never absorbed");
  }
  for (uint64_t key : seen_pairs) {
    auto it = counts_.find(key);
    if (it == counts_.end() || it->second <= 0) {
      return Status::FailedPrecondition(
          "eviction of an execution whose precedence pairs were never "
          "absorbed");
    }
  }

  for (uint64_t key : seen_pairs) {
    auto it = counts_.find(key);
    if (--it->second == 0) counts_.erase(it);
  }
  if (--set_it->second == 0) set_counts_.erase(set_it);
  --num_executions_;
  ++version_;
  static obs::Counter* evicted =
      obs::MetricsRegistry::Get().GetCounter("incremental.executions_evicted");
  evicted->Increment();
  return Status::OK();
}

int64_t IncrementalMiner::EdgeSupport(ActivityId from, ActivityId to) const {
  auto it = counts_.find(PackEdge(from, to));
  return it == counts_.end() ? 0 : it->second;
}

void IncrementalMiner::SetNoiseThreshold(int64_t threshold) {
  options_.noise_threshold = threshold;
  ++version_;
}

Result<ProcessGraph> IncrementalMiner::CurrentGraph() const {
  if (cached_version_ == version_) return cached_graph_;
  if (num_executions_ == 0) {
    return Status::FailedPrecondition("no executions absorbed yet");
  }
  PROCMINE_SPAN("incremental.rebuild");
  static obs::Counter* rebuilds =
      obs::MetricsRegistry::Get().GetCounter("incremental.rebuilds");
  rebuilds->Increment();

  // Algorithm 2 over the accumulated counters and distinct activity sets.
  Result<DirectedGraph> mined = mine_internal::MineFromStatistics(
      counts_, dict_.size(), options_.noise_threshold, set_counts_);
  cached_version_ = version_;
  if (!mined.ok()) {
    cached_graph_ = mined.status();
    return cached_graph_;
  }
  cached_graph_ = ProcessGraph(mined.MoveValueOrDie(), dict_.names());
  return cached_graph_;
}

}  // namespace procmine
