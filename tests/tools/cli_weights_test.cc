// The CLI's weight file end to end: `train --weights` writes one
// checkpoint, `backtest` and `serve` load it, and a damaged copy is
// refused with the checkpoint reader's error and exit status 1 — never an
// abort; a flag left without its value is refused. Runs the real binary
// (PPN_CLI_BIN, injected by CMake).

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "test_dir.h"

namespace {

/// Runs `ppn_cli <args>` at smoke scale with output captured to `log`;
/// returns the exit status (-1 when the process did not exit normally).
int RunCli(const std::string& args, const std::string& log) {
  const std::string command = "PPN_SCALE=smoke " + std::string(PPN_CLI_BIN) +
                              " " + args + " > " + log + " 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(CliWeightsTest, TrainBacktestServeRoundTripAndTruncationIsRefused) {
  const std::string dir = ppn::test::FreshDir("roundtrip");
  const std::string weights = dir + "/policy.ckpt";
  const std::string log = dir + "/cli.log";

  ASSERT_EQ(RunCli("train --steps 2 --weights " + weights, log), 0)
      << ReadAll(log);
  ASSERT_TRUE(std::filesystem::exists(weights));
  EXPECT_EQ(RunCli("backtest --weights " + weights, log), 0) << ReadAll(log);
  EXPECT_EQ(RunCli("serve --users 4 --ticks 2 --weights " + weights, log), 0)
      << ReadAll(log);

  // A truncated copy keeps its magic but fails the CRC footer check.
  const std::string bytes = ReadAll(weights);
  const std::string truncated = dir + "/truncated.ckpt";
  {
    std::ofstream out(truncated, std::ios::binary);
    out << bytes.substr(0, bytes.size() / 2);
  }
  EXPECT_EQ(RunCli("backtest --weights " + truncated, log), 1)
      << ReadAll(log);
  EXPECT_NE(ReadAll(log).find("CRC mismatch"), std::string::npos)
      << ReadAll(log);
  std::filesystem::remove_all(dir);
}

TEST(CliWeightsTest, TrailingFlagWithoutValueIsRejected) {
  // `backtest --weights` with no path must not fall back to the default
  // policy.ckpt: it exits 2 and names the flag.
  const std::string log = ppn::test::FreshDir("trailing") + "/cli.log";
  EXPECT_EQ(RunCli("backtest --weights", log), 2) << ReadAll(log);
  EXPECT_NE(ReadAll(log).find("'--weights' needs a value"), std::string::npos)
      << ReadAll(log);
}

}  // namespace
