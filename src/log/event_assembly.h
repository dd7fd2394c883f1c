// The text-line tokenizer, compact event batches, and the shared
// START/END assembly step.
//
// Every ingestion front end reduces its input to the same
// dictionary-encoded intermediate: name tables plus fixed-size event
// records whose variable-length pieces (names, output vectors) live in side
// pools. Text input is decoded by ScanEventLine, the one tokenizer for the
// `<instance> <activity> START|END <timestamp> [outputs]` line format (the
// sharded parser in LogReader and the streaming scan both call it).
// AssembleExecution is the one START/END pairing step for one process
// instance; AssembleEventLog applies it to every instance of a batch, and
// the streaming scan applies it to one contiguous instance group at a time.
// So every ingestion path accepts the same inputs, produces byte-identical
// executions, and reports identical error texts and error classes by
// construction.
//
// The name tables are string_views borrowed from the caller (raw Event
// structs or an mmapped file); they must stay alive across the call.
// Assembly copies them into the target ActivityDictionary.

#ifndef PROCMINE_LOG_EVENT_ASSEMBLY_H_
#define PROCMINE_LOG_EVENT_ASSEMBLY_H_

#include <charconv>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "log/event.h"
#include "log/event_log.h"
#include "log/recovery.h"
#include "util/result.h"
#include "util/strings.h"

namespace procmine {

/// One parsed event with every string replaced by a table index and outputs
/// referenced in a shared pool. 24 bytes instead of two heap strings.
struct CompactEvent {
  int32_t instance = -1;      ///< index into CompactEventBatch::instance_names
  int32_t activity = -1;      ///< index into CompactEventBatch::activity_names
  EventType type = EventType::kStart;
  int64_t timestamp = 0;
  uint32_t output_begin = 0;  ///< first output value in the pool
  uint32_t output_count = 0;
};

/// A batch of compact events in log order, with borrowed name tables.
struct CompactEventBatch {
  std::vector<std::string_view> instance_names;  ///< by CompactEvent::instance
  std::vector<std::string_view> activity_names;  ///< by CompactEvent::activity
  std::vector<CompactEvent> events;              ///< original log order
  std::vector<int64_t> outputs;                  ///< shared output-value pool
};

/// The std::isspace C-locale set without going through libc: space plus
/// the \t..\r control range.
inline bool IsFieldSpace(char c) {
  return c == ' ' || static_cast<unsigned char>(c - '\t') <= '\r' - '\t';
}

/// Strict integer scan for the hot path: digits with an optional '-', fully
/// consumed. Anything else (leading '+', whitespace, junk) falls back to
/// ParseInt64, which owns the exact dialect and error wording.
inline bool FastParseInt(std::string_view s, int64_t* out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

/// What ScanEventLine found on one line.
enum class LineScan : uint8_t {
  kEvent,      ///< a well-formed event
  kIgnored,    ///< blank line or '#' comment
  kMalformed,  ///< see ScannedLine::error_class / error
};

/// One decoded text line. The name views alias the line.
struct ScannedLine {
  std::string_view instance;
  std::string_view activity;
  EventType type = EventType::kStart;
  int64_t timestamp = 0;
  uint32_t output_count = 0;  ///< values ScanEventLine appended to the pool
  /// kMalformed only: the recovery error class (short_line, bad_event_type,
  /// bad_timestamp, output_on_start, bad_output) and the strict message
  /// without its "line N: " prefix.
  std::string_view error_class;
  std::string error;
};

/// The text-line tokenizer: decodes [p, end) (one line, no '\n') into
/// `*line` in a single pointer scan — fields are carved out in place, so no
/// containers and no string copies on the happy path. On kEvent the line's
/// output values are appended to `*outputs`; otherwise `*outputs` is left
/// as it was. Reuse one ScannedLine across lines to keep the scan
/// allocation-free.
inline LineScan ScanEventLine(const char* p, const char* const end,
                              std::vector<int64_t>* outputs,
                              ScannedLine* line) {
  auto malformed = [line](std::string_view error_class, std::string error) {
    line->error_class = error_class;
    line->error = std::move(error);
    return LineScan::kMalformed;
  };
  // Carve the four fixed fields.
  std::string_view fields[4];
  size_t nfields = 0;
  while (nfields < 4) {
    while (p < end && IsFieldSpace(*p)) ++p;
    if (p == end) break;
    const char* f = p;
    while (p < end && !IsFieldSpace(*p)) ++p;
    fields[nfields++] = std::string_view(f, static_cast<size_t>(p - f));
  }
  if (nfields == 0 || fields[0][0] == '#') return LineScan::kIgnored;
  if (nfields < 4) {  // the scanner drained the line
    return malformed("short_line",
                     StrFormat("expected at least 4 fields, got %zu", nfields));
  }
  if (fields[2] == "START") {
    line->type = EventType::kStart;
  } else if (fields[2] == "END") {
    line->type = EventType::kEnd;
  } else {
    return malformed("bad_event_type",
                     StrFormat("event type must be START or END, got '%s'",
                               std::string(fields[2]).c_str()));
  }
  if (!FastParseInt(fields[3], &line->timestamp)) {
    auto ts = ParseInt64(fields[3]);
    if (!ts.ok()) {
      return malformed("bad_timestamp",
                       StrFormat("bad timestamp: %s",
                                 ts.status().message().c_str()));
    }
    line->timestamp = *ts;
  }
  // Any remaining tokens are output parameters, parsed as encountered.
  const size_t pool_mark = outputs->size();
  line->output_count = 0;
  for (;;) {
    while (p < end && IsFieldSpace(*p)) ++p;
    if (p == end) break;
    const char* f = p;
    while (p < end && !IsFieldSpace(*p)) ++p;
    std::string_view token(f, static_cast<size_t>(p - f));
    if (line->type == EventType::kStart) {
      return malformed("output_on_start",
                       "output parameters are only valid on END events");
    }
    int64_t value;
    if (!FastParseInt(token, &value)) {
      auto parsed = ParseInt64(token);
      if (!parsed.ok()) {
        // Unwind the values this line already pooled.
        outputs->resize(pool_mark);
        return malformed("bad_output",
                         StrFormat("bad output parameter '%s'",
                                   std::string(token).c_str()));
      }
      value = *parsed;
    }
    outputs->push_back(value);
    ++line->output_count;
  }
  line->instance = fields[0];
  line->activity = fields[1];
  return LineScan::kEvent;
}

/// Reusable state for AssembleExecution, indexed by batch activity id:
/// FIFOs of open STARTs, the batch-id → dictionary-id memo, and sort
/// buffers. Reusing one across executions keeps assembly allocation-free
/// once the tables have grown. Bind one scratch to one (batch activity
/// table, dictionary) pair: the memo assumes both only grow.
struct PairingScratch {
  struct OpenStarts {
    struct Pending {
      int64_t timestamp;
      size_t seq;  // position in the execution's time-sorted event order
    };
    std::vector<Pending> queue;
    size_t head = 0;  // pop-from-front is an index bump

    bool empty() const { return head == queue.size(); }
  };
  std::vector<OpenStarts> open;
  std::vector<int32_t> touched;  // activity ids with a non-empty queue
  std::vector<uint32_t> order;   // the execution's events, time-sorted
  std::vector<ActivityInstance> instances;
  std::vector<ActivityId> interned;  // -1 until the activity first pairs
};

/// The START/END pairing step for one process instance named `name`, whose
/// events are batch.events[i] for i in `events` (log order). Sorts the
/// events by time (START before END at equal timestamps, so an
/// instantaneous activity pairs with itself), pairs them FIFO per activity,
/// interns the paired activities into `dict` in pairing order, and returns
/// the execution with its instances ordered by start time.
///
/// On the first pairing failure returns InvalidArgument with the strict
/// message ("execution 'c': END without START for activity 'A'") and sets
/// `*error_class` (end_without_start / start_without_end); nothing is
/// interned then.
Result<Execution> AssembleExecution(const CompactEventBatch& batch,
                                    std::string_view name,
                                    std::span<const uint32_t> events,
                                    ActivityDictionary* dict,
                                    PairingScratch* scratch,
                                    std::string_view* error_class);

/// How AssembleEventLog treats executions whose events do not pair.
/// Under kSkip / kQuarantine the offending execution is dropped (recorded
/// in `report` when non-null: executions_dropped, the error class, and —
/// under kQuarantine — a QuarantineRecord with byte_offset -1 carrying the
/// strict error text).
struct AssemblyRecovery {
  RecoveryPolicy policy = RecoveryPolicy::kStrict;
  IngestionReport* report = nullptr;
};

/// Assembles a batch into an EventLog: groups events by process instance,
/// applies AssembleExecution to each instance in name order, and collects
/// the executions in that order. Semantics and error messages match the
/// documented EventLog::FromEvents contract; the result is deterministic —
/// independent of how the batch was produced or sharded. Malformed
/// executions are handled per `recovery` (strict by default: the first
/// failure in instance-name order fails the whole batch).
Result<EventLog> AssembleEventLog(const CompactEventBatch& batch,
                                  const AssemblyRecovery& recovery = {});

}  // namespace procmine

#endif  // PROCMINE_LOG_EVENT_ASSEMBLY_H_
