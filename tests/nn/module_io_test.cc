// Module parameter persistence: the binary SaveState/LoadState path must
// round-trip exact bits — NaN and ±Inf included — and fail with
// contextual errors on a mismatched module tree or a truncated payload.

#include "nn/module.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "ckpt/binio.h"
#include "common/random.h"
#include "nn/linear.h"

namespace ppn::nn {
namespace {

Linear MakeLinear(uint64_t seed = 1) {
  Rng rng(seed);
  return Linear(3, 2, &rng);
}

void ExpectBitIdentical(const Module& a, const Module& b) {
  const auto pa = a.Parameters();
  const auto pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->numel(), pb[i]->numel());
    EXPECT_EQ(std::memcmp(pa[i]->value().Data(), pb[i]->value().Data(),
                          sizeof(float) * pa[i]->numel()),
              0)
        << "parameter " << i;
  }
}

TEST(ModuleBinaryIoTest, ExactBitRoundTrip) {
  Linear source = MakeLinear(1);
  float* data = source.Parameters()[0]->mutable_value()->MutableData();
  data[0] = std::numeric_limits<float>::quiet_NaN();
  data[1] = std::nextafterf(1.0f, 2.0f);  // Needs all 24 mantissa bits.
  data[2] = std::numeric_limits<float>::infinity();
  data[3] = -std::numeric_limits<float>::infinity();

  std::ostringstream out;
  ckpt::BinWriter writer(&out);
  source.SaveState(&writer);
  const std::string bytes = out.str();

  Linear loaded = MakeLinear(2);
  ckpt::BinReader reader(bytes.data(), bytes.size());
  std::string error;
  ASSERT_TRUE(loaded.LoadState(&reader, &error)) << error;
  ExpectBitIdentical(source, loaded);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(ModuleBinaryIoTest, LoadReportsNameMismatch) {
  Linear source = MakeLinear(1);
  std::ostringstream out;
  ckpt::BinWriter writer(&out);
  source.SaveState(&writer);
  const std::string bytes = out.str();

  // A module tree with different parameter shapes must refuse with a
  // message naming what it found (NOT Linear(2,3): its transposed weight
  // has the same numel and would wrongly pass a count-only check).
  Rng rng(2);
  Linear other(4, 4, &rng);
  ckpt::BinReader reader(bytes.data(), bytes.size());
  std::string error;
  EXPECT_FALSE(other.LoadState(&reader, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ModuleBinaryIoTest, LoadFailsOnTruncatedPayload) {
  Linear source = MakeLinear(1);
  std::ostringstream out;
  ckpt::BinWriter writer(&out);
  source.SaveState(&writer);
  const std::string bytes = out.str().substr(0, out.str().size() / 2);

  Linear loaded = MakeLinear(2);
  ckpt::BinReader reader(bytes.data(), bytes.size());
  std::string error;
  EXPECT_FALSE(loaded.LoadState(&reader, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace ppn::nn
