// StreamingLogReader: bounded-memory scan of very large text logs.
//
// The paper's 10000-execution logs ran to 107 MB; materializing an EventLog
// needs all of it in memory. This reader memory-maps the file and scans it
// one execution group at a time, invoking a callback as each process
// instance completes — this is how the IncrementalMiner and the segment
// store writer consume logs that never fit in memory. Memory holds the
// current group's events plus one name per finished instance (the
// contiguity check below needs them); the names are views into the
// mapping, so the OS pages them in and out with it.
//
// The scan is ParseText (log/reader.h) applied to one contiguous instance
// group at a time: the same tokenizer (ScanEventLine) and the same
// START/END pairing step (AssembleExecution), so on contiguous input it
// accepts and rejects exactly what ParseText does, with ParseText's error
// texts, error classes, report counts and quarantine records.
//
// Requirement on the input (met by LogWriter and the engine): all events of
// one process instance are contiguous in the file. A line of an instance
// whose group already ended is rejected (error class
// non_contiguous_instance).

#ifndef PROCMINE_LOG_STREAMING_READER_H_
#define PROCMINE_LOG_STREAMING_READER_H_

#include <functional>
#include <string>

#include "log/event_log.h"
#include "log/recovery.h"
#include "util/result.h"

namespace procmine {

/// Callback invoked per completed execution; ids refer to `dict`, which
/// grows as new activity names appear. Return a non-OK status to abort the
/// scan (propagated to the caller).
using ExecutionCallback =
    std::function<Status(const Execution&, const ActivityDictionary& dict)>;

/// Statistics of one streaming pass.
struct StreamingStats {
  int64_t executions = 0;  ///< executions delivered to the callback
  int64_t events = 0;      ///< events that survived line parsing
  int64_t lines = 0;       ///< every line, blank and comment lines included
};

/// Recovery knobs for the streaming scan.
struct StreamOptions {
  /// As LogParseOptions::recovery. Under kStrict the scan fails with the
  /// error ParseText reports for the same input: the first malformed line,
  /// else the pairing failure of the first instance in name order (once an
  /// execution fails to pair no further callback fires; the scan runs on
  /// only to find that error). Under kSkip / kQuarantine malformed lines
  /// are dropped and an execution whose events do not pair is dropped — its
  /// callback never fires. A non-contiguous line is rejected immediately
  /// under kStrict and dropped as non_contiguous_instance otherwise.
  RecoveryPolicy recovery = RecoveryPolicy::kStrict;
  /// When non-null, filled as LogParseOptions::report is: line rejects in
  /// file order, then dropped executions in instance-name order.
  IngestionReport* report = nullptr;
};

/// Memory-maps `path` and invokes `callback` per execution, in file order.
Result<StreamingStats> StreamLogFile(const std::string& path,
                                     const ExecutionCallback& callback,
                                     const StreamOptions& options = {});

}  // namespace procmine

#endif  // PROCMINE_LOG_STREAMING_READER_H_
