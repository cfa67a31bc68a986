// Tests for the layout text format: parsing, error reporting with line
// numbers, round-tripping, and integration with the stats/validation APIs.

#include <gtest/gtest.h>

#include <sstream>

#include "ddr/error.hpp"
#include "ddr/mapping.hpp"
#include "ddr/textio.hpp"

namespace {

const char* kE1 = R"(# the paper's E1 example
ndims 2
elem 4
rank own 8x1@0,0 own 8x1@0,4 need 4x4@0,0
rank own 8x1@0,1 own 8x1@0,5 need 4x4@4,0
rank own 8x1@0,2 own 8x1@0,6 need 4x4@0,4
rank own 8x1@0,3 own 8x1@0,7 need 4x4@4,4
)";

TEST(TextIo, ParsesE1) {
  const ddr::LayoutSpec spec = ddr::parse_layout(std::string(kE1));
  EXPECT_EQ(spec.ndims, 2);
  EXPECT_EQ(spec.elem_size, 4u);
  ASSERT_EQ(spec.layout.nranks(), 4);
  EXPECT_EQ(spec.layout.owned[0].size(), 2u);
  EXPECT_EQ(spec.layout.owned[1][1], ddr::Chunk::d2(8, 1, 0, 5));
  ASSERT_EQ(spec.layout.needed[3].size(), 1u);
  EXPECT_EQ(spec.layout.needed[3][0], ddr::Chunk::d2(4, 4, 4, 4));
  EXPECT_TRUE(ddr::validate_owned(spec.layout).ok());
  EXPECT_EQ(spec.layout.rounds(), 2);
}

TEST(TextIo, StatsMatchDirectConstruction) {
  const ddr::LayoutSpec spec = ddr::parse_layout(std::string(kE1));
  const auto s = ddr::compute_stats(spec.layout, spec.elem_size);
  EXPECT_EQ(s.network_bytes, 48 * 4);
  EXPECT_EQ(s.self_bytes, 16 * 4);
}

TEST(TextIo, RoundTripsThroughFormat) {
  const ddr::LayoutSpec spec = ddr::parse_layout(std::string(kE1));
  const std::string text = ddr::format_layout(spec);
  const ddr::LayoutSpec again = ddr::parse_layout(text);
  EXPECT_EQ(again.ndims, spec.ndims);
  EXPECT_EQ(again.elem_size, spec.elem_size);
  ASSERT_EQ(again.layout.nranks(), spec.layout.nranks());
  for (int r = 0; r < spec.layout.nranks(); ++r) {
    const auto ri = static_cast<std::size_t>(r);
    EXPECT_EQ(again.layout.owned[ri], spec.layout.owned[ri]);
    EXPECT_EQ(again.layout.needed[ri], spec.layout.needed[ri]);
  }
}

TEST(TextIo, SupportsMultiChunkNeedsAndNoNeeds) {
  const ddr::LayoutSpec spec = ddr::parse_layout(std::string(
      "ndims 1\nelem 8\n"
      "rank own 8@0 need 2@0 need 2@14\n"
      "rank own 8@8\n"));
  EXPECT_EQ(spec.layout.needed[0].size(), 2u);
  EXPECT_TRUE(spec.layout.needed[1].empty());
}

TEST(TextIo, Supports3D) {
  const ddr::LayoutSpec spec = ddr::parse_layout(std::string(
      "ndims 3\nelem 4\nrank own 4x5x6@1,2,3 need 2x2x2@0,0,0\n"));
  EXPECT_EQ(spec.layout.owned[0][0], ddr::Chunk::d3(4, 5, 6, 1, 2, 3));
}

TEST(TextIo, DefaultElemSizeIsOneByte) {
  const ddr::LayoutSpec spec =
      ddr::parse_layout(std::string("ndims 1\nrank own 4@0 need 4@0\n"));
  EXPECT_EQ(spec.elem_size, 1u);
}

TEST(TextIo, ErrorsCarryLineNumbers) {
  try {
    (void)ddr::parse_layout(std::string("ndims 2\nelem 4\nrank own oops\n"));
    FAIL() << "expected ddr::Error";
  } catch (const ddr::Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(TextIo, RejectsMalformedInput) {
  EXPECT_THROW((void)ddr::parse_layout(std::string("")), ddr::Error);
  EXPECT_THROW((void)ddr::parse_layout(std::string("elem 4\n")), ddr::Error);
  EXPECT_THROW((void)ddr::parse_layout(std::string("ndims 7\n")), ddr::Error);
  EXPECT_THROW((void)ddr::parse_layout(std::string("ndims 2\nbogus 3\n")),
               ddr::Error);
  EXPECT_THROW(
      (void)ddr::parse_layout(std::string("ndims 2\nrank own 4x4\n")),
      ddr::Error);  // missing '@'
  EXPECT_THROW(
      (void)ddr::parse_layout(std::string("ndims 2\nrank own 4@0,0\n")),
      ddr::Error);  // dims rank mismatch
  EXPECT_THROW(
      (void)ddr::parse_layout(std::string("ndims 1\nrank own\n")),
      ddr::Error);  // dangling keyword
  EXPECT_THROW(
      (void)ddr::parse_layout(std::string("ndims 1\nrank own 4@zz\n")),
      ddr::Error);  // bad integer
  EXPECT_THROW((void)ddr::parse_layout(
                   std::string("ndims 1\nrank own 8@0 need -8@8\n")),
               ddr::Error);  // negative extent
}

TEST(TextIo, CommentsAndBlankLinesIgnored) {
  const ddr::LayoutSpec spec = ddr::parse_layout(std::string(
      "# header\n\nndims 1  # trailing\n\nelem 2\nrank own 4@0 need 4@0\n"));
  EXPECT_EQ(spec.layout.nranks(), 1);
}

}  // namespace
