// Traced per-layer run. Times each layer from outside, around the public
// calls of src/log, src/mine and src/serve, over one workload's inputs:
//
//   log.read            LogReader::ReadFile
//   mine.collect        CollectPrecedenceEdges(log, pool)
//   mine.graph          BuildPrecedenceGraph + RemoveTwoCycles
//                       + RemoveIntraSccEdges
//   mine.algo2          GeneralDagMiner::Mine (re-runs collect and graph
//                       inside; run.py derives reduce = algo2 - both)
//   mine.emit           ProcessGraph::ToDot + WriteFileAtomic
//   log.store_write     SegmentedLogWriter::Create + AppendLog + Finish
//   log.segment.decode  SegmentStore::Open + one cold Segment(i) pass
//   mine.ooc            SegmentStore::Open + OutOfCoreMiner::Mine
//   serve.decode        DecodeBinaryLog, per batch
//   serve.apply         Session::ApplyBatch without a journal, per batch
//   serve.journal       SessionJournal::AppendBatch, fsync on, per batch
//   serve.query         Session::CanonicalModelText, every --query-every
//   serve.replay        ReplayJournal + Session::ReplayRecord
//
// Every span is a leaf: spans never nest, so a span's self time is its
// duration and the spans of an iteration plus its untraced remainder add up
// to the iteration's wall time exactly. Iterations repeat until --seconds
// have passed (at least one). Spans are kept in memory and written once at
// the end; the correctness checks run between iterations, outside the
// traced windows.

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "graph/digraph.h"
#include "log/binary_log.h"
#include "log/reader.h"
#include "log/segment_store.h"
#include "mine/edge_collector.h"
#include "mine/general_dag_miner.h"
#include "mine/ooc_miner.h"
#include "pbench.h"
#include "serve/journal.h"
#include "serve/session.h"
#include "util/atomic_file.h"
#include "util/thread_pool.h"

namespace pbench {

namespace fs = std::filesystem;
using procmine::EventLog;
using procmine::ProcessGraph;
using procmine::Result;
using procmine::Status;

namespace {

/// Wall and process-CPU time of every span, by layer name, in call order.
class Tracer {
 public:
  template <typename F>
  auto Time(const std::string& name, F&& body) {
    const int64_t wall0 = MonotonicNs();
    const int64_t cpu0 = ProcessCpuNs();
    struct Record {
      Tracer* tracer;
      const std::string& name;
      int64_t wall0, cpu0;
      ~Record() {
        const int64_t wall = MonotonicNs() - wall0;
        tracer->spans_[name].push_back({wall, ProcessCpuNs() - cpu0});
        tracer->window_spans_ns_ += wall;
      }
    } record{this, name, wall0, cpu0};
    return body();
  }

  /// An iteration's traced window; its wall time minus the spans inside it
  /// is the iteration's unattributed time.
  void OpenWindow() {
    window_start_ = MonotonicNs();
    window_spans_ns_ = 0;
  }
  void CloseWindow() {
    windows_ns_.push_back(MonotonicNs() - window_start_);
    unattributed_ns_.push_back(windows_ns_.back() - window_spans_ns_);
  }

  std::string ToJson() const {
    JsonObject spans;
    for (const auto& [name, list] : spans_) {
      std::vector<double> wall, cpu;
      for (const auto& [w, c] : list) {
        wall.push_back(static_cast<double>(w) / 1e9);
        cpu.push_back(static_cast<double>(c) / 1e9);
      }
      JsonObject span;
      span.Raw("wall_s", JsonNumbers(wall));
      span.Raw("cpu_s", JsonNumbers(cpu));
      spans.Raw(name, span.Finish());
    }
    std::vector<double> windows, unattributed;
    for (int64_t w : windows_ns_) windows.push_back(static_cast<double>(w) / 1e9);
    for (int64_t u : unattributed_ns_) {
      unattributed.push_back(static_cast<double>(u) / 1e9);
    }
    JsonObject out;
    out.Raw("windows_s", JsonNumbers(windows));
    out.Raw("unattributed_s", JsonNumbers(unattributed));
    out.Raw("spans", spans.Finish());
    return out.Finish();
  }

 private:
  std::map<std::string, std::vector<std::pair<int64_t, int64_t>>> spans_;
  std::vector<int64_t> windows_ns_;
  std::vector<int64_t> unattributed_ns_;
  int64_t window_start_ = 0;
  int64_t window_spans_ns_ = 0;
};

/// Correctness tally: every check is one attempted operation.
struct Checks {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 10) errors.push_back(what);
  }
  void ExpectOk(const Status& status, const std::string& what) {
    Expect(status.ok(), what + ": " + status.ToString());
  }
};

/// Executions whose activity sets are distinct: the number of transitive
/// reductions Algorithm 2's reduce step computes when it memoizes by set.
int64_t DistinctActivitySets(const EventLog& log) {
  std::set<std::vector<procmine::ActivityId>> sets;
  for (size_t i = 0; i < log.num_executions(); ++i) {
    std::vector<procmine::ActivityId> ids;
    for (const procmine::ActivityInstance& instance :
         log.execution(i).instances()) {
      ids.push_back(instance.activity);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    sets.insert(std::move(ids));
  }
  return static_cast<int64_t>(sets.size());
}

struct Options {
  std::string log_path;
  std::string ref_dot;
  std::string store_dir;  ///< "" = mine the store written by log.store_write
  std::string work_dir;
  std::vector<Tenant> tenants;
  int64_t batch_executions = 100;
  int64_t max_executions = 0;
  int64_t query_every = 20;
  int threads = 4;
  int64_t resident_bytes = 64ll << 20;
  double seconds = 10;
};

/// Counts taken once, outside the traced windows.
struct Counts {
  int64_t log_bytes = 0;
  int64_t executions = 0;
  int64_t collect_pairs = 0;
  int64_t distinct_sets = 0;
  procmine::SegmentStoreFootprint footprint;
  int64_t ooc_windows = 0;
};

/// One tenant's serve state, kept past the traced window for the checks.
struct ServeRun {
  std::string journal_path;
  std::optional<procmine::serve::Session> live;
  std::optional<procmine::serve::Session> replayed;
  Status replay_status;
};

/// The serve layers for one tenant: apply + journal every batch, query
/// every `query_every`, then replay the journal into a fresh session.
void ServeTenant(const Options& options, const Tenant& tenant,
                 const Batches& batches, int iteration, Tracer* tracer,
                 Checks* checks, ServeRun* run) {
  namespace serve = procmine::serve;
  const serve::SessionSpec spec;
  run->journal_path = options.work_dir + "/" + tenant.name + "-" +
                      std::to_string(iteration) +
                      std::string(serve::kJournalSuffix);
  serve::Session& session = run->live.emplace(tenant.name, spec);
  Result<serve::SessionJournal> journal =
      serve::SessionJournal::Create(run->journal_path, tenant.name, spec, true);
  checks->ExpectOk(journal.status(), "journal create");
  if (!journal.ok()) return;

  for (size_t i = 0; i < batches.bytes.size(); ++i) {
    const std::string& bytes = batches.bytes[i];
    Result<EventLog> decoded = tracer->Time(
        "serve.decode", [&] { return procmine::DecodeBinaryLog(bytes); });
    serve::BatchOutcome outcome =
        tracer->Time("serve.apply", [&] { return session.ApplyBatch(bytes); });
    Status appended = tracer->Time("serve.journal", [&] {
      return journal->AppendBatch(bytes, outcome.applied, false,
                                  procmine::BudgetResource::kNone);
    });
    checks->Expect(decoded.ok() && outcome.code == serve::ResponseCode::kOk &&
                       outcome.applied ==
                           static_cast<int64_t>(batches.logs[i].num_executions()) &&
                       appended.ok(),
                   "batch " + std::to_string(i) + " of " + tenant.name);
    if (options.query_every > 0 &&
        (i + 1) % static_cast<size_t>(options.query_every) == 0) {
      Result<std::string> model = tracer->Time(
          "serve.query", [&] { return session.CanonicalModelText(); });
      checks->ExpectOk(model.status(), "query");
    }
  }

  run->replay_status = tracer->Time("serve.replay", [&] {
    return serve::ReplayJournal(
               run->journal_path,
               [&](const std::string& name, const serve::SessionSpec& header) {
                 run->replayed.emplace(name, header);
                 return Status::OK();
               },
               [&](const serve::JournalRecord& record) {
                 return run->replayed->ReplayRecord(record);
               })
        .status();
  });
}

/// Untraced: the replayed model must equal the live one.
void CheckReplay(const ServeRun& run, Checks* checks) {
  Result<std::string> live = run.live->CanonicalModelText();
  Result<std::string> after =
      run.replayed.has_value() ? run.replayed->CanonicalModelText()
                               : Result<std::string>(Status::NotFound("none"));
  checks->Expect(run.replay_status.ok() && live.ok() && after.ok() &&
                     *live == *after,
                 "replayed model of " + run.live->name() + " differs");
  std::error_code ignored;
  fs::remove(run.journal_path, ignored);
}

int Run(const Options& options, std::string* json) {
  Checks checks;
  Counts counts;
  Tracer tracer;
  const std::string reference = ReadBytes(options.ref_dot);
  std::error_code size_error;
  counts.log_bytes =
      static_cast<int64_t>(fs::file_size(options.log_path, size_error));

  Result<std::vector<Batches>> loaded =
      LoadTenantBatches(options.tenants, options.batch_executions,
                        options.max_executions);
  if (!loaded.ok()) {
    std::fprintf(stderr, "pbench layers: %s\n",
                 loaded.status().ToString().c_str());
    return 2;
  }
  const std::vector<Batches>& tenant_batches = *loaded;

  procmine::ThreadPool pool(options.threads);
  procmine::LogParseOptions parse_options;
  parse_options.num_threads = options.threads;
  procmine::GeneralDagMinerOptions algo2_options;
  algo2_options.num_threads = options.threads;
  procmine::MinerOptions ooc_options;
  ooc_options.num_threads = options.threads;

  const int64_t start = MonotonicNs();
  for (int iteration = 0;
       iteration == 0 ||
       static_cast<double>(MonotonicNs() - start) / 1e9 < options.seconds;
       ++iteration) {
    const std::string written_store =
        options.work_dir + "/store-" + std::to_string(iteration);
    const std::string store_dir =
        options.store_dir.empty() ? written_store : options.store_dir;
    const std::string text_dot = options.work_dir + "/text.dot";
    const std::string store_dot = options.work_dir + "/store.dot";

    tracer.OpenWindow();
    Result<EventLog> log = tracer.Time("log.read", [&] {
      return procmine::LogReader::ReadFile(options.log_path, parse_options);
    });
    if (!log.ok()) {
      std::fprintf(stderr, "pbench layers: %s\n", log.status().ToString().c_str());
      return 2;
    }
    procmine::EdgeCounts edge_counts = tracer.Time("mine.collect", [&] {
      return procmine::CollectPrecedenceEdges(*log, &pool, nullptr, 0);
    });
    procmine::DirectedGraph graph = tracer.Time("mine.graph", [&] {
      procmine::DirectedGraph g = procmine::BuildPrecedenceGraph(
          edge_counts,
          static_cast<procmine::NodeId>(log->dictionary().size()), 1);
      procmine::RemoveTwoCycles(&g);
      procmine::RemoveIntraSccEdges(&g);
      return g;
    });
    Result<ProcessGraph> model = tracer.Time("mine.algo2", [&] {
      return procmine::GeneralDagMiner(algo2_options).Mine(*log);
    });
    Status text_emitted = tracer.Time("mine.emit", [&] {
      return model.ok() ? procmine::WriteFileAtomic(text_dot,
                                                    model->ToDot("process"))
                        : model.status();
    });

    Status stored = tracer.Time("log.store_write", [&]() -> Status {
      PROCMINE_ASSIGN_OR_RETURN(procmine::SegmentedLogWriter writer,
                                procmine::SegmentedLogWriter::Create(written_store));
      PROCMINE_RETURN_NOT_OK(writer.AppendLog(*log));
      return writer.Finish();
    });
    Result<int64_t> decoded_segments =
        tracer.Time("log.segment.decode", [&]() -> Result<int64_t> {
          PROCMINE_ASSIGN_OR_RETURN(procmine::SegmentStore store,
                                    procmine::SegmentStore::Open(store_dir));
          for (size_t i = 0; i < store.num_segments(); ++i) {
            PROCMINE_RETURN_NOT_OK(store.Segment(i).status());
          }
          return static_cast<int64_t>(store.num_segments());
        });
    procmine::SegmentStoreOptions resident;
    resident.max_resident_bytes = options.resident_bytes;
    std::optional<procmine::SegmentStore> store;
    procmine::OocMineStats ooc_stats;
    Result<ProcessGraph> ooc_model = tracer.Time("mine.ooc", [&] {
      Result<procmine::SegmentStore> opened =
          procmine::SegmentStore::Open(store_dir, resident);
      if (!opened.ok()) return Result<ProcessGraph>(opened.status());
      store.emplace(std::move(*opened));
      return procmine::OutOfCoreMiner(ooc_options).Mine(&*store, &ooc_stats);
    });
    Status store_emitted = tracer.Time("mine.emit", [&] {
      return ooc_model.ok()
                 ? procmine::WriteFileAtomic(store_dot,
                                             ooc_model->ToDot("process"))
                 : ooc_model.status();
    });

    std::vector<ServeRun> serve_runs(options.tenants.size());
    for (size_t t = 0; t < options.tenants.size(); ++t) {
      ServeTenant(options, options.tenants[t], tenant_batches[t], iteration,
                  &tracer, &checks, &serve_runs[t]);
    }
    tracer.CloseWindow();

    // Checks and counts, untraced.
    for (const ServeRun& run : serve_runs) CheckReplay(run, &checks);
    checks.ExpectOk(text_emitted, "text model");
    checks.Expect(text_emitted.ok() && ReadBytes(text_dot) == reference,
                  "in-memory DOT differs from the reference");
    checks.ExpectOk(stored, "store write");
    checks.ExpectOk(decoded_segments.status(), "segment decode");
    checks.ExpectOk(store_emitted, "out-of-core model");
    checks.Expect(store_emitted.ok() && ReadBytes(store_dot) == reference,
                  "out-of-core DOT differs from the reference");
    checks.Expect(graph.num_nodes() > 0, "empty precedence graph");
    if (iteration == 0) {
      counts.executions = static_cast<int64_t>(log->num_executions());
      for (const auto& [edge, count] : edge_counts) counts.collect_pairs += count;
      counts.distinct_sets = DistinctActivitySets(*log);
      if (store.has_value()) counts.footprint = store->Footprint();
      counts.ooc_windows = ooc_stats.windows;
    }
    std::error_code ignored;
    fs::remove_all(written_store, ignored);
  }

  const procmine::SegmentStoreFootprint& fp = counts.footprint;
  JsonObject count_json;
  count_json.Int("log_bytes", counts.log_bytes);
  count_json.Int("executions", counts.executions);
  count_json.Int("collect_pairs", counts.collect_pairs);
  count_json.Int("distinct_sets", counts.distinct_sets);
  count_json.Int("segments", fp.segments);
  count_json.Int("segment_disk_bytes", fp.disk_bytes);
  count_json.Int("segment_loads", fp.loads);
  count_json.Int("segment_cache_hits", fp.cache_hits);
  count_json.Int("segment_peak_resident_bytes", fp.peak_resident_bytes);
  count_json.Int("ooc_windows", counts.ooc_windows);

  JsonObject check_json;
  check_json.Int("attempted", checks.attempted);
  check_json.Int("failed", checks.failed);
  check_json.Raw("errors", JsonStrings(checks.errors));

  JsonObject out;
  out.Raw("trace", tracer.ToJson());
  out.Raw("counts", count_json.Finish());
  out.Raw("checks", check_json.Finish());
  *json = out.Finish();
  return 0;
}

}  // namespace

int RunLayers(const Flags& flags) {
  Options options;
  options.log_path = flags.Get("log");
  options.ref_dot = flags.Get("ref-dot");
  options.store_dir = flags.Get("store");
  options.work_dir = flags.Get("work");
  options.batch_executions = flags.GetInt("batch-executions", 100);
  options.max_executions = flags.GetInt("max-executions", 0);
  options.query_every = flags.GetInt("query-every", 20);
  options.threads = static_cast<int>(flags.GetInt("threads", 4));
  options.resident_bytes = flags.GetInt("resident-mb", 64) << 20;
  options.seconds = std::stod(flags.Get("seconds", "10"));
  Result<std::vector<Tenant>> tenants = ParseTenants(flags);
  if (options.log_path.empty() || options.ref_dot.empty() ||
      options.work_dir.empty() || !tenants.ok()) {
    std::fprintf(stderr,
                 "usage: pbench layers --log=PATH --ref-dot=PATH --work=DIR "
                 "--tenant=NAME=PATH... [--store=DIR] [--seconds=S]\n");
    return 2;
  }
  options.tenants = std::move(*tenants);
  std::string json;
  int code = Run(options, &json);
  if (code != 0) return code;
  return Emit(flags.Get("out"), json);
}

}  // namespace pbench
