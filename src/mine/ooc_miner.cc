#include "mine/ooc_miner.h"

#include <memory>

#include "log/transform.h"
#include "mine/driver.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace procmine {

namespace {

using mine_internal::SourcePass;

// A segment store as a many-window source: one decoded segment per window,
// the tail window trimmed to the planned execution count. Each pass gets an
// "ooc.<pass>" span and telemetry phase; window visits feed the ooc.*
// counters and, for the collect and reduce passes, OocMineStats.
class StoreSource final : public mine_internal::ExecutionSource {
 public:
  StoreSource(SegmentStore* store, OocMineStats* stats)
      : store_(store), stats_(stats), limit_(store->num_executions()) {}

  const ActivityDictionary& dictionary() const override {
    return store_->dictionary();
  }
  int64_t num_executions() const override { return limit_; }

  void Plan(int64_t executions) override {
    limit_ = executions;
    // Progress denominators for the telemetry status surface: a watcher
    // divides windows_visited / executions mined by these.
    static obs::Gauge* windows_total =
        obs::MetricsRegistry::Get().GetGauge("ooc.windows_total");
    static obs::Gauge* executions_total =
        obs::MetricsRegistry::Get().GetGauge("progress.executions_total");
    windows_total->Set(static_cast<int64_t>(store_->num_segments()));
    executions_total->Set(limit_);
  }

  Status ForEachWindow(SourcePass pass, const WindowFn& fn) override {
    static constexpr const char* kPassNames[] = {
        "ooc.select", "ooc.validate", "ooc.label", "ooc.collect",
        "ooc.reduce"};
    const char* name = kPassNames[static_cast<size_t>(pass)];
    obs::ScopedSpan span(name);
    obs::ScopedPhase phase(name);
    const bool tallied =
        pass == SourcePass::kCollect || pass == SourcePass::kReduce;
    int64_t remaining = limit_;
    for (size_t i = 0; i < store_->num_segments() && remaining > 0; ++i) {
      PROCMINE_ASSIGN_OR_RETURN(std::shared_ptr<const EventLog> window,
                                store_->Segment(i));
      if (window->num_executions() == 0) continue;
      static obs::Counter* visited =
          obs::MetricsRegistry::Get().GetCounter("ooc.windows_visited");
      visited->Increment();
      if (tallied && stats_ != nullptr) ++stats_->windows;
      EventLog trimmed;
      const EventLog* visible = window.get();
      if (static_cast<int64_t>(window->num_executions()) > remaining) {
        trimmed = TakeExecutions(*window, static_cast<size_t>(remaining));
        visible = &trimmed;
      }
      remaining -= static_cast<int64_t>(visible->num_executions());
      if (pass == SourcePass::kCollect) CountMined(*visible);
      PROCMINE_ASSIGN_OR_RETURN(bool keep_going, fn(*visible));
      if (!keep_going) break;
    }
    return Status::OK();
  }

 private:
  void CountMined(const EventLog& window) {
    static obs::Counter* mined =
        obs::MetricsRegistry::Get().GetCounter("ooc.executions_mined");
    mined->Add(static_cast<int64_t>(window.num_executions()));
    if (stats_ != nullptr) {
      stats_->executions += static_cast<int64_t>(window.num_executions());
      stats_->events += 2 * window.TotalInstances();
    }
  }

  SegmentStore* store_;
  OocMineStats* stats_;
  int64_t limit_;
};

}  // namespace

Result<ProcessGraph> OutOfCoreMiner::Mine(SegmentStore* store,
                                          OocMineStats* stats) const {
  PROCMINE_SPAN("ooc.mine");
  PROCMINE_PHASE("ooc.mine");
  // Evidence indices would be window-local. (An empty store still fails as
  // an empty log does.)
  if (options_.provenance != nullptr && store->num_executions() > 0) {
    return Status::InvalidArgument(
        "provenance recording needs the whole log resident; use the "
        "in-memory mining path for run reports");
  }
  StoreSource source(store, stats);
  return mine_internal::MineSource(&source, options_);
}

}  // namespace procmine
