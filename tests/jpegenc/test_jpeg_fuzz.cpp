// Robustness tests for the JPEG decoder: truncations and mutations of valid
// streams must throw jpeg::Error or decode to a well-formed image — never
// crash or hang. Deterministic fuzz sweeps (fixed seeds).

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>

#include "jpegenc/jpeg.hpp"

namespace {

std::vector<std::byte> sample_stream() {
  img::RgbImage im(40, 24);
  for (std::uint32_t y = 0; y < 24; ++y)
    for (std::uint32_t x = 0; x < 40; ++x)
      im.at(x, y) = img::Rgb{static_cast<std::uint8_t>(x * 6),
                             static_cast<std::uint8_t>(y * 10),
                             static_cast<std::uint8_t>((x + y) * 4)};
  return jpeg::encode(im);
}

void decode_must_not_crash(std::span<const std::byte> data) {
  try {
    const img::RgbImage im = jpeg::decode(data);
    EXPECT_EQ(im.pixels().size(),
              static_cast<std::size_t>(im.width()) * im.height());
  } catch (const jpeg::Error&) {
    // Expected for most corruptions.
  }
}

TEST(JpegFuzz, TruncationsAreHandled) {
  const auto file = sample_stream();
  for (std::size_t len = 0; len < file.size(); len += 2) {
    std::vector<std::byte> cut(file.begin(),
                               file.begin() + static_cast<std::ptrdiff_t>(len));
    decode_must_not_crash(cut);
  }
}

TEST(JpegFuzz, SingleByteMutations) {
  const auto file = sample_stream();
  std::mt19937 rng(4242);
  for (int trial = 0; trial < 400; ++trial) {
    auto mutated = file;
    mutated[rng() % mutated.size()] = static_cast<std::byte>(rng() & 0xff);
    decode_must_not_crash(mutated);
  }
}

TEST(JpegFuzz, MarkerRegionMutations) {
  // The segment headers (first ~650 bytes: DQT/SOF/DHT tables) are where
  // out-of-range indices would bite; hammer them specifically.
  const auto file = sample_stream();
  std::mt19937 rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    auto mutated = file;
    const std::size_t pos = rng() % std::min<std::size_t>(650, mutated.size());
    mutated[pos] = static_cast<std::byte>(rng() & 0xff);
    decode_must_not_crash(mutated);
  }
}

TEST(JpegFuzz, EntropyStreamBitFlipsStayInBounds) {
  // Bit flips inside the entropy-coded data must never produce
  // out-of-bounds block indices (the AC run checks catch overruns).
  const auto file = sample_stream();
  std::mt19937 rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    auto mutated = file;
    const std::size_t pos =
        650 + rng() % (mutated.size() - 652);  // keep SOI/EOI intact
    mutated[pos] ^= static_cast<std::byte>(1 << (rng() % 8));
    decode_must_not_crash(mutated);
  }
}

TEST(JpegFuzz, GarbageWithForgedSoi) {
  std::mt19937 rng(31337);
  for (int trial = 0; trial < 150; ++trial) {
    std::vector<std::byte> junk(8 + rng() % 300);
    for (auto& b : junk) b = static_cast<std::byte>(rng() & 0xff);
    junk[0] = std::byte{0xff};
    junk[1] = std::byte{0xd8};
    decode_must_not_crash(junk);
  }
}

TEST(JpegFuzz, OversizedDcCategoryRejected) {
  // A corrupt DHT segment can carry any byte as a DC symbol; the decoder
  // must reject a category past 11 before reading its magnitude bits, not
  // shift an int by it.
  auto file = sample_stream();
  int rewritten = 0;
  for (std::size_t pos = 2; pos + 4 <= file.size();) {
    ASSERT_EQ(file[pos], std::byte{0xff});
    const auto code = static_cast<std::uint8_t>(file[pos + 1]);
    const std::size_t len = (static_cast<std::size_t>(file[pos + 2]) << 8) |
                            static_cast<std::size_t>(file[pos + 3]);
    if (code == 0xda) break;  // SOS: the tables are all behind us
    if (code == 0xc4) {
      // DHT: [class/id][16 code-length counts][symbols], possibly repeated.
      std::size_t t = pos + 4;
      while (t < pos + 2 + len) {
        const bool dc = (static_cast<std::uint8_t>(file[t]) >> 4) == 0;
        std::size_t nsym = 0;
        for (std::size_t i = 1; i <= 16; ++i)
          nsym += static_cast<std::size_t>(file[t + i]);
        if (dc)
          for (std::size_t i = 0; i < nsym; ++i) {
            file[t + 17 + i] = std::byte{174};
            ++rewritten;
          }
        t += 17 + nsym;
      }
    }
    pos += 2 + len;
  }
  ASSERT_GT(rewritten, 0) << "no DC table found in the sample stream";
  try {
    (void)jpeg::decode(file);
    FAIL() << "a DC category of 174 decoded";
  } catch (const jpeg::Error& e) {
    EXPECT_NE(std::string(e.what()).find("DC category 174"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
