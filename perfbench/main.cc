#include <time.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "log/binary_log.h"
#include "log/reader.h"
#include "pbench.h"
#include "util/bit_matrix.h"
#include "util/strings.h"

namespace pbench {

using procmine::EventLog;
using procmine::Result;
using procmine::Status;

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg.substr(2)].push_back("");
    } else {
      values_[arg.substr(2, eq - 2)].push_back(arg.substr(eq + 1));
    }
  }
}

std::string Flags::Get(const std::string& key,
                       const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second.back();
}

int64_t Flags::GetInt(const std::string& key, int64_t fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : std::stoll(it->second.back());
}

std::vector<std::string> Flags::GetAll(const std::string& key) const {
  auto it = values_.find(key);
  return it == values_.end() ? std::vector<std::string>{} : it->second;
}

namespace {
int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
}  // namespace

int64_t MonotonicNs() { return ClockNs(CLOCK_MONOTONIC); }
int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ",";
  body_ += JsonString(key) + ":";
}
void JsonObject::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
}
void JsonObject::Num(const std::string& key, double value) {
  Key(key);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
}
void JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
}
void JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += JsonString(value);
}
void JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  procmine::AppendJsonEscaped(&out, value);
  return out + "\"";
}

std::string JsonNumbers(const std::vector<double>& values) {
  std::string out = "[";
  char buf[64];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  return out + "]";
}

std::string JsonStrings(const std::vector<std::string>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ",") + JsonString(values[i]);
  }
  return out + "]";
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int Emit(const std::string& path, const std::string& json) {
  if (path.empty()) {
    std::cout << json << "\n";
    return 0;
  }
  std::ofstream out(path);
  out << json << "\n";
  out.close();
  if (!out) {
    std::cerr << "pbench: cannot write " << path << "\n";
    return 1;
  }
  return 0;
}

Result<std::vector<Tenant>> ParseTenants(const Flags& flags) {
  std::vector<Tenant> tenants;
  for (const std::string& spec : flags.GetAll("tenant")) {
    size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("--tenant wants NAME=PATH, got " + spec);
    }
    tenants.push_back({spec.substr(0, eq), spec.substr(eq + 1)});
  }
  if (tenants.empty()) return Status::InvalidArgument("no --tenant given");
  return tenants;
}

EventLog SliceLog(const EventLog& log, size_t begin, size_t end) {
  EventLog slice;
  for (size_t i = begin; i < end; ++i) {
    const procmine::Execution& exec = log.execution(i);
    procmine::Execution copy(exec.name());
    for (const procmine::ActivityInstance& instance : exec.instances()) {
      procmine::ActivityInstance mapped = instance;
      mapped.activity =
          slice.dictionary().Intern(log.dictionary().Name(instance.activity));
      copy.Append(std::move(mapped));
    }
    slice.AddExecution(std::move(copy));
  }
  return slice;
}

namespace {
Batches CutBatches(const EventLog& log, size_t begin, size_t end,
                   int64_t batch_executions) {
  const size_t step = static_cast<size_t>(std::max<int64_t>(1, batch_executions));
  Batches batches;
  for (size_t first = begin; first < end; first += step) {
    EventLog slice = SliceLog(log, first, std::min(end, first + step));
    batches.bytes.push_back(procmine::EncodeBinaryLog(slice));
    batches.logs.push_back(std::move(slice));
  }
  return batches;
}
}  // namespace

Result<std::vector<Batches>> LoadTenantBatches(const std::vector<Tenant>& tenants,
                                               int64_t batch_executions,
                                               int64_t max_executions) {
  std::vector<Batches> all;
  for (const Tenant& tenant : tenants) {
    PROCMINE_ASSIGN_OR_RETURN(EventLog log,
                              procmine::LogReader::ReadFile(tenant.path));
    size_t total = log.num_executions();
    if (max_executions > 0) {
      total = std::min(total, static_cast<size_t>(max_executions));
    }
    all.push_back(CutBatches(log, 0, total, batch_executions));
  }
  return all;
}

Result<std::string> CanonicalModelText(const procmine::IncrementalMiner& miner) {
  PROCMINE_ASSIGN_OR_RETURN(procmine::ProcessGraph graph, miner.CurrentGraph());
  std::vector<std::string> lines;
  for (const procmine::Edge& e : graph.graph().Edges()) {
    lines.push_back(graph.name(e.from) + "\t" + graph.name(e.to) + "\n");
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

int RunEnv(const Flags& flags) {
  JsonObject env;
#if defined(__OPTIMIZE__)
  env.Bool("optimized", true);
#else
  env.Bool("optimized", false);
#endif
#if defined(NDEBUG)
  env.Bool("ndebug", true);
#else
  env.Bool("ndebug", false);
#endif
  env.Str("build_type", PBENCH_BUILD_TYPE);
#if defined(__clang__)
  env.Str("compiler", std::string("clang ") + __VERSION__);
#else
  env.Str("compiler", std::string("gcc ") + __VERSION__);
#endif
  env.Str("kernel_mode", procmine::bits::KernelMode());
  env.Int("hardware_concurrency",
          static_cast<int64_t>(std::thread::hardware_concurrency()));
  return Emit(flags.Get("out"), env.Finish());
}

}  // namespace pbench

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  pbench::Flags flags(argc, argv, 2);
  if (command == "env") return pbench::RunEnv(flags);
  if (command == "feed") return pbench::RunFeed(flags);
  if (command == "recover") return pbench::RunRecover(flags);
  if (command == "layers") return pbench::RunLayers(flags);
  std::fprintf(stderr,
               "usage: pbench env|feed|recover|layers [--flag=value ...]\n"
               "  (launched by perfbench/run.py; see perfbench/README.md)\n");
  return 2;
}
