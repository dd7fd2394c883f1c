// Test helper: a scratch file under the gtest temp dir, removed on scope
// exit. Names combine the running test's name, the process id and a
// counter, so tests running in parallel processes never collide.

#ifndef PROCMINE_TESTS_TEMP_FILE_H_
#define PROCMINE_TESTS_TEMP_FILE_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

namespace procmine {

class TempFile {
 public:
  explicit TempFile(std::string_view contents) {
    static int counter = 0;
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "/" +
            (test != nullptr ? std::string(test->test_suite_name()) + "." +
                                   test->name()
                             : std::string("procmine")) +
            "." + std::to_string(getpid()) + "." + std::to_string(counter++) +
            ".log";
    std::ofstream out(path_, std::ios::binary);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  }
  ~TempFile() { std::remove(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace procmine

#endif  // PROCMINE_TESTS_TEMP_FILE_H_
