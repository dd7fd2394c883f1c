#include "obs/telemetry.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>

#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/strings.h"
#include "util/timer.h"

namespace procmine::obs {

namespace {

// --- /proc/self readers ----------------------------------------------------

// Reads a small procfs file into `out`; false when it cannot be opened.
bool ReadSmallFile(const char* path, std::string* out) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return false;
  out->clear();
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

int64_t ParseI64(std::string_view text) {
  int64_t v = 0;
  bool neg = false;
  size_t i = 0;
  if (i < text.size() && text[i] == '-') {
    neg = true;
    ++i;
  }
  for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
    v = v * 10 + (text[i] - '0');
  }
  return neg ? -v : v;
}

// Whitespace-splits `text` into at most `max` tokens.
std::vector<std::string_view> SplitTokens(std::string_view text, size_t max) {
  std::vector<std::string_view> tokens;
  size_t i = 0;
  while (i < text.size() && tokens.size() < max) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\n')) ++i;
    size_t start = i;
    while (i < text.size() && text[i] != ' ' && text[i] != '\n') ++i;
    if (i > start) tokens.push_back(text.substr(start, i - start));
  }
  return tokens;
}

void ReadStatm(ProcSelfStats* stats) {
  std::string text;
  if (!ReadSmallFile("/proc/self/statm", &text)) return;
  std::vector<std::string_view> tokens = SplitTokens(text, 2);
  if (tokens.size() < 2) return;
  const int64_t page = sysconf(_SC_PAGESIZE);
  stats->vm_bytes = ParseI64(tokens[0]) * page;
  stats->rss_bytes = ParseI64(tokens[1]) * page;
}

void ReadStat(ProcSelfStats* stats) {
  std::string text;
  if (!ReadSmallFile("/proc/self/stat", &text)) return;
  // Field 2 (comm) is parenthesized and may contain spaces; everything
  // after the last ')' is fixed-position. Token 0 below is field 3 (state),
  // so majflt/utime/stime/num_threads are tokens 9/11/12/17.
  size_t close = text.rfind(')');
  if (close == std::string::npos) return;
  std::vector<std::string_view> tokens =
      SplitTokens(std::string_view(text).substr(close + 1), 18);
  if (tokens.size() < 18) return;
  const double ticks =
      static_cast<double>(std::max<long>(sysconf(_SC_CLK_TCK), 1));
  stats->major_faults = ParseI64(tokens[9]);
  stats->cpu_user_seconds = static_cast<double>(ParseI64(tokens[11])) / ticks;
  stats->cpu_system_seconds = static_cast<double>(ParseI64(tokens[12])) / ticks;
  stats->threads = ParseI64(tokens[17]);
}

void ReadIo(ProcSelfStats* stats) {
  std::string text;
  if (!ReadSmallFile("/proc/self/io", &text)) return;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string_view line = std::string_view(text).substr(pos, eol - pos);
    if (line.rfind("read_bytes: ", 0) == 0) {
      stats->io_read_bytes = ParseI64(line.substr(12));
    } else if (line.rfind("write_bytes: ", 0) == 0) {
      stats->io_write_bytes = ParseI64(line.substr(13));
    }
    pos = eol + 1;
  }
}

void ReadFdCount(ProcSelfStats* stats) {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return;
  int64_t count = 0;
  while (dirent* entry = readdir(dir)) {
    if (std::strcmp(entry->d_name, ".") == 0 ||
        std::strcmp(entry->d_name, "..") == 0) {
      continue;
    }
    ++count;
  }
  closedir(dir);
  // Exclude the directory fd opendir itself holds.
  stats->open_fds = std::max<int64_t>(count - 1, 0);
}

// --- shared serialization helpers ------------------------------------------

int64_t UnixMillisNow() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

int64_t GaugeValueOf(const MetricsSnapshot& snapshot, std::string_view name) {
  for (const MetricsSnapshot::GaugeValue& g : snapshot.gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

void AppendKv(std::string* out, bool* first, std::string_view key,
              std::string_view raw_value) {
  if (!*first) *out += ",";
  *first = false;
  *out += "\"";
  AppendJsonEscaped(out, key);
  *out += "\":";
  out->append(raw_value);
}

void AppendKvInt(std::string* out, bool* first, std::string_view key,
                 int64_t value) {
  AppendKv(out, first, key,
           StrFormat("%lld", static_cast<long long>(value)));
}

void AppendKvDouble(std::string* out, bool* first, std::string_view key,
                    double value) {
  AppendKv(out, first, key, StrFormat("%.6f", value));
}

void AppendKvString(std::string* out, bool* first, std::string_view key,
                    std::string_view value) {
  std::string quoted;
  AppendJsonQuoted(&quoted, value);
  AppendKv(out, first, key, quoted);
}

// {"rss_bytes":...,"cpu_user_s":...,...}
std::string ProcessJson(const ProcSelfStats& p) {
  std::string out = "{";
  bool first = true;
  AppendKvInt(&out, &first, "rss_bytes", p.rss_bytes);
  AppendKvInt(&out, &first, "vm_bytes", p.vm_bytes);
  AppendKvDouble(&out, &first, "cpu_user_s", p.cpu_user_seconds);
  AppendKvDouble(&out, &first, "cpu_system_s", p.cpu_system_seconds);
  AppendKvInt(&out, &first, "threads", p.threads);
  AppendKvInt(&out, &first, "major_faults", p.major_faults);
  AppendKvInt(&out, &first, "io_read_bytes", p.io_read_bytes);
  AppendKvInt(&out, &first, "io_write_bytes", p.io_write_bytes);
  AppendKvInt(&out, &first, "open_fds", p.open_fds);
  out += "}";
  return out;
}

// The budget object shared by the JSONL sample and the status file, or
// "null" when no budget is registered. Headroom fields are -1 when that
// limit is unlimited.
std::string BudgetJson(const TelemetrySample& s) {
  if (!s.has_budget) return "null";
  const RunBudget::Limits& limits = s.budget_limits;
  const int64_t deadline_headroom =
      limits.deadline_ms < 0
          ? -1
          : std::max<int64_t>(limits.deadline_ms - s.budget_elapsed_ms, 0);
  const int64_t memory_headroom =
      limits.max_memory_bytes < 0
          ? -1
          : std::max<int64_t>(limits.max_memory_bytes - s.process.rss_bytes,
                              0);
  std::string out = "{";
  bool first = true;
  AppendKvInt(&out, &first, "deadline_ms", limits.deadline_ms);
  AppendKvInt(&out, &first, "elapsed_ms", s.budget_elapsed_ms);
  AppendKvInt(&out, &first, "deadline_headroom_ms", deadline_headroom);
  AppendKvInt(&out, &first, "max_memory_bytes", limits.max_memory_bytes);
  AppendKvInt(&out, &first, "rss_bytes", s.process.rss_bytes);
  AppendKvInt(&out, &first, "memory_headroom_bytes", memory_headroom);
  AppendKvInt(&out, &first, "max_executions", limits.max_executions);
  AppendKvString(&out, &first, "exhausted", s.budget_exhausted);
  out += "}";
  return out;
}

void AppendOpenMetricsLabelEscaped(std::string* out, std::string_view value) {
  for (char c : value) {
    if (c == '\\' || c == '"') {
      *out += '\\';
      *out += c;
    } else if (c == '\n') {
      *out += "\\n";
    } else {
      *out += c;
    }
  }
}

// --- phase marker -----------------------------------------------------------

std::atomic<const char*> g_phase{nullptr};

}  // namespace

void SetCurrentPhase(const char* name) {
  g_phase.store(name, std::memory_order_relaxed);
}

const char* CurrentPhaseName() {
  const char* phase = g_phase.load(std::memory_order_relaxed);
  return phase != nullptr ? phase : "idle";
}

ScopedPhase::ScopedPhase(const char* name)
    : prev_(g_phase.load(std::memory_order_relaxed)) {
  g_phase.store(name, std::memory_order_relaxed);
}

ScopedPhase::~ScopedPhase() { g_phase.store(prev_, std::memory_order_relaxed); }

// --- /proc/self ------------------------------------------------------------

ProcSelfStats ReadProcSelfStats() {
  ProcSelfStats stats;
  ReadStatm(&stats);
  ReadStat(&stats);
  ReadIo(&stats);
  ReadFdCount(&stats);
  return stats;
}

// --- serialization ----------------------------------------------------------

std::string OpenMetricsName(std::string_view name) {
  std::string out = "procmine_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string OpenMetricsText(const TelemetrySample& sample) {
  std::string out;
  auto counter = [&out](std::string_view name, std::string_view value) {
    out += StrFormat("# TYPE %.*s counter\n", static_cast<int>(name.size()),
                     name.data());
    out += name;
    out += "_total ";
    out += value;
    out += "\n";
  };
  auto gauge = [&out](std::string_view name, std::string_view value) {
    out += StrFormat("# TYPE %.*s gauge\n", static_cast<int>(name.size()),
                     name.data());
    out += name;
    out += " ";
    out += value;
    out += "\n";
  };
  auto i64 = [](int64_t v) {
    return StrFormat("%lld", static_cast<long long>(v));
  };

  // Registry metrics, in the snapshot's deterministic name order.
  for (const auto& c : sample.metrics.counters) {
    counter(OpenMetricsName(c.name), i64(c.value));
  }
  for (const auto& g : sample.metrics.gauges) {
    gauge(OpenMetricsName(g.name), i64(g.value));
  }
  for (const auto& h : sample.metrics.histograms) {
    const std::string name = OpenMetricsName(h.name);
    out += StrFormat("# TYPE %s histogram\n", name.c_str());
    int64_t cumulative = 0;
    for (size_t b = 0; b < h.counts.size(); ++b) {
      cumulative += h.counts[b];
      if (b < h.bounds.size()) {
        out += StrFormat("%s_bucket{le=\"%lld\"} %lld\n", name.c_str(),
                         static_cast<long long>(h.bounds[b]),
                         static_cast<long long>(cumulative));
      } else {
        out += StrFormat("%s_bucket{le=\"+Inf\"} %lld\n", name.c_str(),
                         static_cast<long long>(cumulative));
      }
    }
    out += StrFormat("%s_sum %lld\n", name.c_str(),
                     static_cast<long long>(h.sum));
    out += StrFormat("%s_count %lld\n", name.c_str(),
                     static_cast<long long>(h.total_count));
  }

  // Standard process metrics (Prometheus client-library names).
  const ProcSelfStats& p = sample.process;
  gauge("process_resident_memory_bytes", i64(p.rss_bytes));
  gauge("process_virtual_memory_bytes", i64(p.vm_bytes));
  counter("process_cpu_seconds", StrFormat("%.6f", p.CpuSeconds()));
  if (p.open_fds >= 0) gauge("process_open_fds", i64(p.open_fds));
  gauge("procmine_process_threads", i64(p.threads));
  counter("procmine_process_major_faults", i64(p.major_faults));
  if (p.io_read_bytes >= 0) {
    counter("procmine_process_io_read_bytes", i64(p.io_read_bytes));
  }
  if (p.io_write_bytes >= 0) {
    counter("procmine_process_io_write_bytes", i64(p.io_write_bytes));
  }

  // Budget headroom (only when a budget is registered).
  if (sample.has_budget) {
    const RunBudget::Limits& limits = sample.budget_limits;
    gauge("procmine_budget_elapsed_ms", i64(sample.budget_elapsed_ms));
    if (limits.deadline_ms >= 0) {
      gauge("procmine_budget_deadline_headroom_ms",
            i64(std::max<int64_t>(limits.deadline_ms - sample.budget_elapsed_ms,
                                  0)));
    }
    if (limits.max_memory_bytes >= 0) {
      gauge("procmine_budget_memory_headroom_bytes",
            i64(std::max<int64_t>(limits.max_memory_bytes - p.rss_bytes, 0)));
    }
    gauge("procmine_budget_exhausted",
          sample.budget_exhausted.empty() ? "0" : "1");
  }

  // Telemetry self-description: sample count, heartbeat, current phase.
  counter("procmine_telemetry_samples", i64(sample.seq + 1));
  gauge("procmine_telemetry_heartbeat_unix_seconds",
        StrFormat("%.3f", static_cast<double>(sample.unix_ms) / 1000.0));
  out += "# TYPE procmine_phase info\n";
  out += "procmine_phase_info{phase=\"";
  AppendOpenMetricsLabelEscaped(&out, sample.phase);
  out += "\"} 1\n";

  out += "# EOF\n";
  return out;
}

std::string StatusJson(const TelemetrySample& sample,
                       const TelemetryOptions& options) {
  const MetricsSnapshot& m = sample.metrics;
  std::string out = "{";
  bool first = true;
  AppendKvInt(&out, &first, "schema_version", kTelemetrySchemaVersion);
  AppendKvInt(&out, &first, "pid", static_cast<int64_t>(getpid()));
  AppendKvString(&out, &first, "command", options.command);
  AppendKvString(&out, &first, "source", options.source);
  AppendKvString(&out, &first, "phase", sample.phase);
  AppendKvInt(&out, &first, "seq", sample.seq);
  AppendKvInt(&out, &first, "interval_ms", options.interval_ms);
  AppendKvDouble(&out, &first, "uptime_ms",
                 static_cast<double>(sample.t_ns) / 1e6);
  AppendKvInt(&out, &first, "heartbeat_unix_ms", sample.unix_ms);

  std::string progress = "{";
  bool pfirst = true;
  AppendKvInt(&progress, &pfirst, "executions_read",
              m.CounterTotal("log.executions_read"));
  AppendKvInt(&progress, &pfirst, "executions_scanned",
              m.CounterTotal("mine.executions_scanned"));
  AppendKvInt(&progress, &pfirst, "executions_total",
              GaugeValueOf(m, "progress.executions_total"));
  AppendKvInt(&progress, &pfirst, "windows_visited",
              m.CounterTotal("ooc.windows_visited"));
  AppendKvInt(&progress, &pfirst, "windows_total",
              GaugeValueOf(m, "ooc.windows_total"));
  AppendKvInt(&progress, &pfirst, "drift_windows_evaluated",
              m.CounterTotal("drift.windows_evaluated"));
  AppendKvInt(&progress, &pfirst, "drift_alerts_raised",
              m.CounterTotal("drift.alerts_raised"));
  progress += "}";
  AppendKv(&out, &first, "progress", progress);

  AppendKv(&out, &first, "budget", BudgetJson(sample));

  std::string cache = "{";
  bool cfirst = true;
  AppendKvInt(&cache, &cfirst, "resident_bytes",
              GaugeValueOf(m, "segment.resident_bytes"));
  AppendKvInt(&cache, &cfirst, "hits", m.CounterTotal("segment.cache_hits"));
  AppendKvInt(&cache, &cfirst, "loads", m.CounterTotal("segment.loads"));
  AppendKvInt(&cache, &cfirst, "evictions",
              m.CounterTotal("segment.evictions"));
  AppendKvInt(&cache, &cfirst, "spill_seals",
              m.CounterTotal("segment.spill_seals"));
  AppendKvInt(&cache, &cfirst, "salvage_events",
              m.CounterTotal("segment.salvage_events"));
  AppendKvInt(&cache, &cfirst, "salvaged_executions",
              m.CounterTotal("segment.salvaged_executions"));
  AppendKvInt(&cache, &cfirst, "lost_executions",
              m.CounterTotal("segment.lost_executions"));
  cache += "}";
  AppendKv(&out, &first, "cache", cache);

  AppendKv(&out, &first, "process", ProcessJson(sample.process));
  out += "}\n";
  return out;
}

std::string TelemetrySampleJsonLine(const TelemetrySample& sample,
                                    const MetricsSnapshot* prev) {
  std::string out = "{";
  bool first = true;
  AppendKvInt(&out, &first, "schema_version", kTelemetrySchemaVersion);
  AppendKvInt(&out, &first, "seq", sample.seq);
  AppendKvDouble(&out, &first, "t_ms", static_cast<double>(sample.t_ns) / 1e6);
  AppendKvInt(&out, &first, "unix_ms", sample.unix_ms);
  AppendKvString(&out, &first, "phase", sample.phase);
  AppendKv(&out, &first, "process", ProcessJson(sample.process));

  std::string counters = "{";
  bool cfirst = true;
  for (const auto& c : sample.metrics.counters) {
    AppendKvInt(&counters, &cfirst, c.name, c.value);
  }
  counters += "}";
  AppendKv(&out, &first, "counters", counters);

  // Deltas since the previous sample, only for counters that moved.
  // Shard-dependent metrics are excluded: their splits depend on the thread
  // layout, so rates computed from them would not be comparable across runs
  // (the same predicate keeps them out of run reports).
  std::string deltas = "{";
  bool dfirst = true;
  for (const auto& c : sample.metrics.counters) {
    if (ShardDependentMetric(c.name)) continue;
    const int64_t before = prev != nullptr ? prev->CounterTotal(c.name) : 0;
    if (c.value != before) {
      AppendKvInt(&deltas, &dfirst, c.name, c.value - before);
    }
  }
  deltas += "}";
  AppendKv(&out, &first, "deltas", deltas);

  std::string gauges = "{";
  bool gfirst = true;
  for (const auto& g : sample.metrics.gauges) {
    AppendKvInt(&gauges, &gfirst, g.name, g.value);
  }
  gauges += "}";
  AppendKv(&out, &first, "gauges", gauges);

  std::string histograms = "{";
  bool hfirst = true;
  for (const auto& h : sample.metrics.histograms) {
    std::string one = "{";
    bool ofirst = true;
    AppendKvInt(&one, &ofirst, "count", h.total_count);
    AppendKvInt(&one, &ofirst, "sum", h.sum);
    one += "}";
    AppendKv(&histograms, &hfirst, h.name, one);
  }
  histograms += "}";
  AppendKv(&out, &first, "histograms", histograms);

  AppendKv(&out, &first, "budget", BudgetJson(sample));
  out += "}";
  return out;
}

// --- sampler ----------------------------------------------------------------

TelemetrySampler::TelemetrySampler(TelemetryOptions options)
    : options_(std::move(options)) {
  if (options_.interval_ms <= 0) options_.interval_ms = 250;
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
}

TelemetrySampler::~TelemetrySampler() { Stop(); }

Status TelemetrySampler::Start() {
  if (started_) {
    return Status::FailedPrecondition("telemetry sampler already started");
  }
  started_ = true;
  if (!options_.jsonl_path.empty()) {
    jsonl_ = std::fopen(options_.jsonl_path.c_str(), "w");
    if (jsonl_ == nullptr) {
      return Status::IOError(
          StrFormat("telemetry: cannot open %s", options_.jsonl_path.c_str()));
    }
  }
  SampleOnce();
  thread_ = std::thread(&TelemetrySampler::Loop, this);
  return Status::OK();
}

Status TelemetrySampler::Stop() {
  if (!started_ || stopped_) {
    stopped_ = true;
    std::lock_guard<std::mutex> lock(mu_);
    return first_error_;
  }
  stopped_ = true;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_requested_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  SampleOnce();  // final sample: short runs still produce artifacts
  if (jsonl_ != nullptr) {
    std::fclose(jsonl_);
    jsonl_ = nullptr;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_;
}

void TelemetrySampler::SetBudget(const RunBudget* budget) {
  std::lock_guard<std::mutex> lock(mu_);
  // Unregistering keeps a last-known copy: the final sample after a
  // degraded command returns must still say *which* budget resource died,
  // or the status file would end on "budget": null right when it matters.
  if (budget == nullptr && budget_ != nullptr) {
    sticky_budget_valid_ = true;
    sticky_limits_ = budget_->limits();
    sticky_elapsed_ms_ = static_cast<int64_t>(budget_->ElapsedMillis());
    sticky_exhausted_ = std::string(BudgetResourceName(budget_->Exhausted()));
  } else if (budget != nullptr) {
    sticky_budget_valid_ = false;
  }
  budget_ = budget;
}

void TelemetrySampler::Loop() {
  std::unique_lock<std::mutex> lock(wake_mu_);
  while (!stop_requested_) {
    const bool stopping =
        wake_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                       [this] { return stop_requested_; });
    if (stopping) break;
    lock.unlock();
    SampleOnce();
    lock.lock();
  }
}

TelemetrySample TelemetrySampler::Collect() {
  TelemetrySample sample;
  sample.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  sample.t_ns = StopWatch::NowNanosSinceProcessStart();
  sample.unix_ms = UnixMillisNow();
  sample.phase = CurrentPhaseName();
  sample.process = ReadProcSelfStats();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (budget_ != nullptr) {
      sample.has_budget = true;
      sample.budget_limits = budget_->limits();
      sample.budget_elapsed_ms =
          static_cast<int64_t>(budget_->ElapsedMillis());
      sample.budget_exhausted =
          std::string(BudgetResourceName(budget_->Exhausted()));
    } else if (sticky_budget_valid_) {
      sample.has_budget = true;
      sample.budget_limits = sticky_limits_;
      sample.budget_elapsed_ms = sticky_elapsed_ms_;
      sample.budget_exhausted = sticky_exhausted_;
    }
  }
  // Publish headroom as registry gauges *before* the snapshot, so the
  // budget picture also shows up in --metrics-out and run reports' gauges.
  // The sampler is the only writer; instrumented code never pays for this.
  if (sample.has_budget) {
    static Gauge* elapsed =
        MetricsRegistry::Get().GetGauge("budget.elapsed_ms");
    static Gauge* deadline_headroom =
        MetricsRegistry::Get().GetGauge("budget.deadline_headroom_ms");
    static Gauge* memory_headroom =
        MetricsRegistry::Get().GetGauge("budget.memory_headroom_bytes");
    elapsed->Set(sample.budget_elapsed_ms);
    deadline_headroom->Set(
        sample.budget_limits.deadline_ms < 0
            ? -1
            : std::max<int64_t>(
                  sample.budget_limits.deadline_ms - sample.budget_elapsed_ms,
                  0));
    memory_headroom->Set(
        sample.budget_limits.max_memory_bytes < 0
            ? -1
            : std::max<int64_t>(sample.budget_limits.max_memory_bytes -
                                    sample.process.rss_bytes,
                                0));
  }
  sample.metrics = MetricsRegistry::Get().Snapshot();
  return sample;
}

void TelemetrySampler::Emit(const TelemetrySample& sample,
                            const MetricsSnapshot* prev) {
  auto note = [this](Status status) {
    if (!status.ok() && first_error_.ok()) first_error_ = std::move(status);
  };
  if (jsonl_ != nullptr) {
    std::string line = TelemetrySampleJsonLine(sample, prev);
    line += "\n";
    if (std::fwrite(line.data(), 1, line.size(), jsonl_) != line.size() ||
        std::fflush(jsonl_) != 0) {
      note(Status::IOError(StrFormat("telemetry: short write to %s",
                                     options_.jsonl_path.c_str())));
    }
  }
  if (!options_.openmetrics_path.empty()) {
    note(WriteFileAtomic(options_.openmetrics_path, OpenMetricsText(sample)));
  }
  if (!options_.status_path.empty()) {
    note(WriteFileAtomic(options_.status_path, StatusJson(sample, options_)));
  }
}

void TelemetrySampler::SampleOnce() {
  TelemetrySample sample = Collect();
  std::lock_guard<std::mutex> lock(mu_);
  Emit(sample, have_prev_ ? &prev_ : nullptr);
  prev_ = sample.metrics;
  have_prev_ = true;
  ring_.push_back(std::move(sample));
  while (ring_.size() > options_.ring_capacity) ring_.pop_front();
  samples_taken_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<TelemetrySample> TelemetrySampler::RingSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<TelemetrySample>(ring_.begin(), ring_.end());
}

// --- global sampler ---------------------------------------------------------

namespace {
std::atomic<TelemetrySampler*> g_telemetry{nullptr};
}  // namespace

Status StartGlobalTelemetry(const TelemetryOptions& options) {
  if (g_telemetry.load(std::memory_order_acquire) != nullptr) {
    return Status::FailedPrecondition("global telemetry already running");
  }
  auto sampler = std::make_unique<TelemetrySampler>(options);
  Status status = sampler->Start();
  if (!status.ok()) return status;
  g_telemetry.store(sampler.release(), std::memory_order_release);
  return Status::OK();
}

TelemetrySampler* GlobalTelemetry() {
  return g_telemetry.load(std::memory_order_acquire);
}

Status StopGlobalTelemetry() {
  TelemetrySampler* sampler = g_telemetry.exchange(nullptr);
  if (sampler == nullptr) return Status::OK();
  Status status = sampler->Stop();
  delete sampler;
  return status;
}

}  // namespace procmine::obs
