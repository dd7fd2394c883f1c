// pbench: the benchmark's own helper binary. run.py launches it for the
// parts of a run that must link the library:
//
//   pbench env                     build stamp (optimized?, kernel mode, ...)
//   pbench feed|recover ...        closed-loop serve client (feed.cc)
//   pbench layers ...              traced per-layer run (layers.cc)
//
// Every subcommand writes one JSON object (to --out, or stdout) and exits 0
// when it ran, whatever it measured; correctness verdicts are fields of that
// object, judged by run.py.

#ifndef PERFBENCH_PBENCH_H_
#define PERFBENCH_PBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "log/event_log.h"
#include "mine/incremental.h"
#include "util/result.h"

namespace pbench {

/// `--key=value` flags; a key may repeat.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback = "") const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  std::vector<std::string> GetAll(const std::string& key) const;

 private:
  std::map<std::string, std::vector<std::string>> values_;
};

/// CLOCK_MONOTONIC in nanoseconds: the clock run.py's time.monotonic_ns()
/// reads, so timestamps cross the process boundary.
int64_t MonotonicNs();
/// CPU time of the whole process (all threads), nanoseconds.
int64_t ProcessCpuNs();

/// Minimal JSON object writer: keys in insertion order, no nesting beyond
/// raw fragments the caller builds.
class JsonObject {
 public:
  void Int(const std::string& key, int64_t value);
  void Num(const std::string& key, double value);
  void Bool(const std::string& key, bool value);
  void Str(const std::string& key, const std::string& value);
  void Raw(const std::string& key, const std::string& json);
  std::string Finish() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};
std::string JsonString(const std::string& value);
std::string JsonNumbers(const std::vector<double>& values);
std::string JsonStrings(const std::vector<std::string>& values);

/// The whole file, or "" when it cannot be read.
std::string ReadBytes(const std::string& path);

/// Writes `json` plus a newline to `path`, or to stdout when `path` is "".
int Emit(const std::string& path, const std::string& json);

/// A tenant: session name and the text log it feeds.
struct Tenant {
  std::string name;
  std::string path;
};
/// Parses repeated `--tenant=NAME=PATH` flags.
procmine::Result<std::vector<Tenant>> ParseTenants(const Flags& flags);

/// Executions [begin, end) of `log` as a self-contained log with its own
/// dictionary (what `procmine client --batch-executions` sends).
procmine::EventLog SliceLog(const procmine::EventLog& log, size_t begin,
                            size_t end);

/// Executions of a tenant log cut into binary batches.
struct Batches {
  std::vector<procmine::EventLog> logs;
  std::vector<std::string> bytes;  ///< EncodeBinaryLog of each slice
};

/// Every tenant's batches of `batch_executions`, from the first
/// `max_executions` executions of its log (<= 0: all).
procmine::Result<std::vector<Batches>> LoadTenantBatches(
    const std::vector<Tenant>& tenants, int64_t batch_executions,
    int64_t max_executions);

/// The model of `miner` in the serve query format: one "from\tto" line per
/// edge, sorted.
procmine::Result<std::string> CanonicalModelText(
    const procmine::IncrementalMiner& miner);

int RunEnv(const Flags& flags);
int RunFeed(const Flags& flags);
int RunRecover(const Flags& flags);
int RunLayers(const Flags& flags);

}  // namespace pbench

#endif  // PERFBENCH_PBENCH_H_
