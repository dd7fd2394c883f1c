// pbench_calib: the benchmark's fixed reference workload.
//
//   pbench_calib <text-log>
//
// Reads a procmine text log ("<case> <activity> <START|END> <time>" lines),
// interns activity and case names, and counts, for every ordered pair of
// activities, the executions in which the first starts before the second.
// Prints "<activities> <executions> <checksum>" on stdout.
//
// The work resembles a single-threaded text mining pass (file read, line
// tokenizing, hash-map interning, per-execution pair counting), but the code
// is the benchmark's own and links nothing from procmine, so a change to the
// program never changes its time. run.py times it next to each --threads=1
// mining pass and reports the pass time in units of it (`wall_t1_rel`): a
// host that is slower for a while slows both, and the ratio stays.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace {

bool ReadFile(const char* path, std::string* out) {
  int fd = open(path, O_RDONLY);
  if (fd < 0) return false;
  char buf[1 << 16];
  ssize_t n;
  while ((n = read(fd, buf, sizeof(buf))) > 0) out->append(buf, n);
  close(fd);
  return n == 0;
}

// Splits `line` at spaces into at most 4 fields; returns how many it found.
int SplitFields(std::string_view line, std::string_view fields[4]) {
  int count = 0;
  size_t i = 0;
  while (count < 4 && i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    size_t end = line.find(' ', i);
    if (end == std::string_view::npos) end = line.size();
    if (end > i) fields[count++] = line.substr(i, end - i);
    i = end;
  }
  return count;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: pbench_calib <text-log>\n");
    return 2;
  }
  std::string text;
  if (!ReadFile(argv[1], &text)) {
    std::fprintf(stderr, "pbench_calib: cannot read %s\n", argv[1]);
    return 1;
  }

  std::unordered_map<std::string, int> activities;
  std::unordered_map<std::string, int> cases;
  std::vector<std::vector<std::pair<int64_t, int>>> starts;  // per case
  std::string_view all(text);
  std::string_view fields[4];
  for (size_t pos = 0; pos < all.size();) {
    size_t eol = all.find('\n', pos);
    if (eol == std::string_view::npos) eol = all.size();
    std::string_view line = all.substr(pos, eol - pos);
    pos = eol + 1;
    if (SplitFields(line, fields) < 4 || fields[2] != "START") continue;
    int activity = activities
                       .emplace(std::string(fields[1]),
                                static_cast<int>(activities.size()))
                       .first->second;
    auto [it, fresh] =
        cases.emplace(std::string(fields[0]), static_cast<int>(cases.size()));
    if (fresh) starts.emplace_back();
    int64_t time = 0;
    for (char c : fields[3]) time = time * 10 + (c - '0');
    starts[it->second].push_back({time, activity});
  }

  const size_t n = activities.size();
  std::vector<uint32_t> before(n * n);
  for (auto& events : starts) {
    std::sort(events.begin(), events.end());
    for (size_t i = 0; i < events.size(); ++i) {
      for (size_t j = i + 1; j < events.size(); ++j) {
        ++before[events[i].second * n + events[j].second];
      }
    }
  }
  uint64_t checksum = 1469598103934665603ull;  // FNV-1a over the counts
  for (uint32_t count : before) checksum = (checksum ^ count) * 1099511628211ull;
  std::printf("%zu %zu %016llx\n", n, starts.size(),
              static_cast<unsigned long long>(checksum));
  return 0;
}
