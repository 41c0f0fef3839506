// Typed environment-knob accessors: registry completeness, strict parsing
// (set-but-malformed aborts, including the empty string), flag semantics,
// and the unregistered-name trap.

#include "common/env.h"

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

namespace ppn::env {
namespace {

/// Saves and restores one knob around a test (tests mutate the process
/// environment, so each fixture puts the original value back).
class ScopedEnvVar {
 public:
  explicit ScopedEnvVar(const char* name) : name_(name) {
    const char* value = std::getenv(name);
    had_value_ = value != nullptr;
    if (had_value_) original_ = value;
  }
  ~ScopedEnvVar() {
    if (had_value_) {
      ::setenv(name_, original_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  void Set(const char* value) { ::setenv(name_, value, 1); }
  void Unset() { ::unsetenv(name_); }

 private:
  const char* name_;
  bool had_value_ = false;
  std::string original_;
};

TEST(EnvRegistryTest, ListsEveryKnownKnob) {
  const std::vector<VarInfo>& registry = Registry();
  EXPECT_GE(registry.size(), 12u);
  for (const char* required :
       {"PPN_WORKERS", "PPN_SCALE", "PPN_TRACE_JSON", "PPN_TRACE_CAPACITY",
        "PPN_RUNLOG_DIR", "PPN_RESULTS_JSON", "PPN_NO_POOL",
        "PPN_STATS_JSONL", "PPN_SAMPLE_MS", "PPN_HEALTH"}) {
    bool found = false;
    for (const VarInfo& info : registry) {
      if (std::string(info.name) == required) {
        found = true;
        EXPECT_NE(std::string(info.description), "") << required;
      }
    }
    EXPECT_TRUE(found) << required << " missing from env registry";
  }
}

TEST(EnvAccessorTest, IsSetHasValueDistinguishEmpty) {
  ScopedEnvVar var("PPN_RUNLOG_DIR");
  var.Unset();
  EXPECT_FALSE(IsSet("PPN_RUNLOG_DIR"));
  EXPECT_FALSE(HasValue("PPN_RUNLOG_DIR"));
  var.Set("");
  EXPECT_TRUE(IsSet("PPN_RUNLOG_DIR"));
  EXPECT_FALSE(HasValue("PPN_RUNLOG_DIR"));
  var.Set("/tmp/logs");
  EXPECT_TRUE(IsSet("PPN_RUNLOG_DIR"));
  EXPECT_TRUE(HasValue("PPN_RUNLOG_DIR"));
}

TEST(EnvAccessorTest, FlagSemantics) {
  ScopedEnvVar var("PPN_NO_POOL");
  var.Unset();
  EXPECT_FALSE(FlagSet("PPN_NO_POOL"));
  var.Set("");
  EXPECT_FALSE(FlagSet("PPN_NO_POOL"));
  var.Set("0");
  EXPECT_FALSE(FlagSet("PPN_NO_POOL"));
  var.Set("1");
  EXPECT_TRUE(FlagSet("PPN_NO_POOL"));
  var.Set("yes");
  EXPECT_TRUE(FlagSet("PPN_NO_POOL"));
  var.Set("00");  // Only the exact string "0" means off.
  EXPECT_TRUE(FlagSet("PPN_NO_POOL"));
}

TEST(EnvAccessorTest, Int64FallsBackOnlyWhenUnset) {
  ScopedEnvVar var("PPN_TRACE_CAPACITY");
  var.Unset();
  EXPECT_EQ(Int64Or("PPN_TRACE_CAPACITY", 123), 123);
  var.Set("4096");
  EXPECT_EQ(Int64Or("PPN_TRACE_CAPACITY", 123), 4096);
  var.Set("-7");
  EXPECT_EQ(Int64Or("PPN_TRACE_CAPACITY", 123), -7);
}

TEST(EnvAccessorTest, DoubleFallsBackOnlyWhenUnset) {
  ScopedEnvVar var("PPN_FABRIC_WORKER_TIMEOUT_S");
  var.Unset();
  EXPECT_DOUBLE_EQ(DoubleOr("PPN_FABRIC_WORKER_TIMEOUT_S", 2.5), 2.5);
  var.Set("0.75");
  EXPECT_DOUBLE_EQ(DoubleOr("PPN_FABRIC_WORKER_TIMEOUT_S", 2.5), 0.75);
}

TEST(EnvAccessorTest, StringOrUsesFallbackForEmpty) {
  ScopedEnvVar var("PPN_SCALE");
  var.Unset();
  EXPECT_EQ(StringOr("PPN_SCALE", "quick"), "quick");
  var.Set("");
  EXPECT_EQ(StringOr("PPN_SCALE", "quick"), "quick");
  var.Set("full");
  EXPECT_EQ(StringOr("PPN_SCALE", "quick"), "full");
}

TEST(EnvDeathTest, MalformedIntAbortsNamingTheVariable) {
  ScopedEnvVar var("PPN_TRACE_CAPACITY");
  var.Set("not-a-number");
  EXPECT_DEATH(Int64Or("PPN_TRACE_CAPACITY", 1), "PPN_TRACE_CAPACITY");
  var.Set("");  // Set-but-empty is malformed, not "use the fallback".
  EXPECT_DEATH(Int64Or("PPN_TRACE_CAPACITY", 1), "PPN_TRACE_CAPACITY");
}

TEST(EnvDeathTest, MalformedDoubleAborts) {
  ScopedEnvVar var("PPN_FABRIC_WORKER_TIMEOUT_S");
  var.Set("fast");
  EXPECT_DEATH(DoubleOr("PPN_FABRIC_WORKER_TIMEOUT_S", 0.0),
               "PPN_FABRIC_WORKER_TIMEOUT_S");
}

TEST(EnvDeathTest, MalformedSampleIntervalAborts) {
  ScopedEnvVar var("PPN_SAMPLE_MS");
  var.Set("abc");
  EXPECT_DEATH(Int64Or("PPN_SAMPLE_MS", 250), "PPN_SAMPLE_MS");
}

TEST(EnvDeathTest, UnregisteredNameAborts) {
  EXPECT_DEATH(Raw("PPN_NOT_A_REAL_KNOB"), "not registered");
  EXPECT_DEATH(IsSet("PPN_NOT_A_REAL_KNOB"), "not registered");
}

}  // namespace
}  // namespace ppn::env
