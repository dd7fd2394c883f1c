#include "log/streaming_reader.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "log/event_assembly.h"
#include "obs/trace.h"
#include "util/mapped_file.h"
#include "util/strings.h"

namespace procmine {

Result<StreamingStats> StreamLogFile(const std::string& path,
                                     const ExecutionCallback& callback,
                                     const StreamOptions& options) {
  PROCMINE_SPAN("log.stream_mmap");
  PROCMINE_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  const std::string_view data = file.data();
  const RecoveryPolicy policy = options.recovery;
  IngestionReport* const report = options.report;
  if (report != nullptr) report->policy = policy;

  StreamingStats stats;
  ActivityDictionary dict;
  PairingScratch scratch;
  // The open group's events, over one scan-wide activity table. Every name
  // view aliases the mapping.
  CompactEventBatch group;
  std::vector<uint32_t> group_events;  // 0..n-1: the group's event indices
  std::string_view group_name;         // empty while no group is open
  std::unordered_map<std::string_view, int32_t> activity_ids;
  std::unordered_set<std::string_view> finished;
  // kStrict: the pairing failure ParseText would report — the first in
  // instance-name order. Once set, no further callback fires.
  Status failed;
  std::string_view failed_name;
  // Dropped executions' quarantine records; ParseText lists them after the
  // line rejects, in instance-name order.
  std::vector<std::pair<std::string_view, QuarantineRecord>> dropped;

  // Pairs and delivers the open group. The pool's values from `keep_from`
  // on belong to the line that opens the next group and are kept.
  auto close_group = [&](uint32_t keep_from) -> Status {
    std::string_view name = std::exchange(group_name, {});
    std::string_view error_class;
    Result<Execution> exec = AssembleExecution(
        group, name, group_events, &dict, &scratch, &error_class);
    finished.insert(name);
    group.events.clear();
    group_events.clear();
    group.outputs.erase(group.outputs.begin(),
                        group.outputs.begin() + keep_from);
    if (!exec.ok()) {
      if (policy == RecoveryPolicy::kStrict) {
        if (failed.ok() || name < failed_name) {
          failed = exec.status();
          failed_name = name;
        }
      } else if (report != nullptr) {
        ++report->executions_dropped;
        report->AddErrorClass(error_class);
        if (policy == RecoveryPolicy::kQuarantine) {
          QuarantineRecord record;
          record.error_class = std::string(error_class);
          record.raw = exec.status().message();
          dropped.emplace_back(name, std::move(record));
        }
      }
      return Status::OK();
    }
    if (!failed.ok()) return Status::OK();
    ++stats.executions;
    return callback(*exec, dict);
  };

  ScannedLine line;
  const char* p = data.data();
  const char* const end = p + data.size();
  while (p < end) {
    const char* nl = static_cast<const char*>(
        memchr(p, '\n', static_cast<size_t>(end - p)));
    const char* const line_begin = p;
    const char* const line_end = nl != nullptr ? nl : end;
    p = nl != nullptr ? nl + 1 : end;
    ++stats.lines;
    if (report != nullptr) ++report->lines_total;
    CompactEvent event;
    event.output_begin = static_cast<uint32_t>(group.outputs.size());
    LineScan scan = ScanEventLine(line_begin, line_end, &group.outputs, &line);
    if (scan == LineScan::kIgnored) continue;
    if (scan == LineScan::kEvent && line.instance != group_name) {
      if (finished.count(line.instance) > 0) {
        group.outputs.resize(event.output_begin);
        scan = LineScan::kMalformed;
        line.error_class = "non_contiguous_instance";
        line.error = StrFormat("events of instance '%s' are not contiguous",
                               std::string(line.instance).c_str());
      } else {
        if (!group_name.empty()) {
          PROCMINE_RETURN_NOT_OK(close_group(event.output_begin));
          event.output_begin = 0;
        }
        group_name = line.instance;
      }
    }
    if (scan == LineScan::kMalformed) {
      if (policy == RecoveryPolicy::kStrict) {
        return Status::InvalidArgument(
            StrFormat("line %lld: %s", static_cast<long long>(stats.lines),
                      line.error.c_str()));
      }
      if (report != nullptr) {
        ++report->lines_skipped;
        report->AddErrorClass(line.error_class);
        if (policy == RecoveryPolicy::kQuarantine) {
          QuarantineRecord record;
          record.byte_offset = line_begin - data.data();
          record.line = stats.lines;
          record.error_class = std::string(line.error_class);
          record.raw.assign(line_begin,
                            static_cast<size_t>(line_end - line_begin));
          report->quarantined.push_back(std::move(record));
        }
      }
      continue;
    }
    ++stats.events;
    if (report != nullptr) ++report->events_parsed;
    auto [it, inserted] = activity_ids.emplace(
        line.activity, static_cast<int32_t>(group.activity_names.size()));
    if (inserted) group.activity_names.push_back(line.activity);
    event.activity = it->second;
    event.type = line.type;
    event.timestamp = line.timestamp;
    event.output_count = line.output_count;
    group_events.push_back(static_cast<uint32_t>(group.events.size()));
    group.events.push_back(event);
  }
  if (!group_name.empty()) {
    PROCMINE_RETURN_NOT_OK(
        close_group(static_cast<uint32_t>(group.outputs.size())));
  }
  if (!failed.ok()) return failed;
  if (report != nullptr) {
    std::stable_sort(dropped.begin(), dropped.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (auto& [name, record] : dropped) {
      report->quarantined.push_back(std::move(record));
    }
  }
  return stats;
}

}  // namespace procmine
