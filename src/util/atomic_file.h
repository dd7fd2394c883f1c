// Crash-safe file output: write to a temp file, fsync, rename into place.
//
// A reader never observes a torn artifact: either the old file (or nothing)
// is at `path`, or the complete new contents are. The temp file lives next
// to the target (`<path>.tmp`) so the rename stays within one filesystem,
// and is unlinked on any failure. Write/fsync/rename are failpoint sites
// (atomic_write.open / .write / .fsync / .rename) so tests can prove the
// no-torn-output property under injected faults.

#ifndef PROCMINE_UTIL_ATOMIC_FILE_H_
#define PROCMINE_UTIL_ATOMIC_FILE_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace procmine {

/// Atomically replaces `path` with `content`. On error the target file is
/// untouched and the temp file has been removed (unless the process was
/// killed mid-write, in which case only `<path>.tmp` can be left behind).
Status WriteFileAtomic(const std::string& path, std::string_view content);

/// Creates `dir` and any missing parents (mkdir -p semantics). `what` names
/// the directory's role in error messages ("store", "registry").
Status MakeDirs(const std::string& dir, std::string_view what);

}  // namespace procmine

#endif  // PROCMINE_UTIL_ATOMIC_FILE_H_
