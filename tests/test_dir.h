#ifndef PPN_TESTS_TEST_DIR_H_
#define PPN_TESTS_TEST_DIR_H_

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace ppn::test {

/// Returns a freshly created, empty directory
/// `::testing::TempDir()/ppn-test-<pid>/<name>`, removing whatever an
/// earlier call with the same name left there. The pid level keeps two
/// test processes — e.g. two build trees running ctest at the same time —
/// from deleting each other's files. The process that created the pid
/// directory removes it when it exits normally; a forked death-test child
/// leaves it alone.
inline std::string FreshDir(const std::string& name) {
  struct ProcessDir {
    pid_t owner = ::getpid();
    std::filesystem::path path = std::filesystem::path(::testing::TempDir()) /
                                 ("ppn-test-" + std::to_string(owner));
    ~ProcessDir() {
      std::error_code ignored;
      if (::getpid() == owner) std::filesystem::remove_all(path, ignored);
    }
  };
  static const ProcessDir process_dir;
  const std::filesystem::path dir = process_dir.path / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace ppn::test

#endif  // PPN_TESTS_TEST_DIR_H_
