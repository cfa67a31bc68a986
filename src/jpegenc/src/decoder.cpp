#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "dct.hpp"
#include "huffman.hpp"
#include "jpegenc/jpeg.hpp"
#include "tables.hpp"

namespace jpeg {

namespace detail {
namespace {

/// MSB-first bit reader over entropy-coded data; un-stuffs FF00 and treats
/// any real marker as end of data (remaining reads yield zero bits).
class BitReader {
 public:
  BitReader(std::span<const std::byte> data, std::size_t pos)
      : data_(data), pos_(pos) {}

  int bit() {
    if (n_ == 0) {
      if (ended_ || pos_ >= data_.size()) return 0;
      auto b = static_cast<std::uint8_t>(data_[pos_++]);
      if (b == 0xff) {
        if (pos_ >= data_.size()) {
          ended_ = true;
          return 0;
        }
        const auto next = static_cast<std::uint8_t>(data_[pos_]);
        if (next == 0x00) {
          ++pos_;  // stuffed byte
        } else {
          ended_ = true;  // a real marker terminates the scan
          return 0;
        }
      }
      acc_ = b;
      n_ = 8;
    }
    --n_;
    return (acc_ >> n_) & 1;
  }

  int bits(int count) {
    int v = 0;
    for (int i = 0; i < count; ++i) v = (v << 1) | bit();
    return v;
  }

  [[nodiscard]] std::size_t position() const { return pos_; }

  /// Byte-aligns and consumes an expected RSTn marker (T.81 E.2.4).
  void consume_restart() {
    n_ = 0;  // discard padding bits of the previous restart interval
    ended_ = false;
    if (pos_ + 2 > data_.size()) throw Error("jpeg: truncated at restart");
    const auto m0 = static_cast<std::uint8_t>(data_[pos_]);
    const auto m1 = static_cast<std::uint8_t>(data_[pos_ + 1]);
    if (m0 != 0xff || m1 < 0xd0 || m1 > 0xd7)
      throw Error("jpeg: expected restart marker");
    pos_ += 2;
  }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_;
  std::uint32_t acc_ = 0;
  int n_ = 0;
  bool ended_ = false;
};

int decode_symbol(BitReader& br, const HuffDecoder& h) {
  std::int32_t code = 0;
  for (int l = 1; l <= 16; ++l) {
    code = (code << 1) | br.bit();
    if (h.maxcode[static_cast<std::size_t>(l)] >= 0 &&
        code <= h.maxcode[static_cast<std::size_t>(l)]) {
      const int idx = h.valptr[static_cast<std::size_t>(l)] +
                      (code - h.mincode[static_cast<std::size_t>(l)]);
      if (idx < 0 || idx >= h.nvals)
        throw Error("jpeg: corrupt Huffman stream");
      return h.vals[static_cast<std::size_t>(idx)];
    }
  }
  throw Error("jpeg: invalid Huffman code");
}

struct Component {
  int id = 0;
  int h = 1, v = 1;
  int tq = 0;           // quant table id
  int td = 0, ta = 0;   // huffman table ids
  int dc_pred = 0;
  int width = 0, height = 0;  // component resolution (padded to blocks)
  std::vector<double> samples;
};

struct Parser {
  std::span<const std::byte> data;
  std::size_t pos = 0;

  std::uint8_t u8() {
    if (pos >= data.size()) throw Error("jpeg: truncated stream");
    return static_cast<std::uint8_t>(data[pos++]);
  }
  std::uint16_t be16() {
    const auto hi = u8();
    return static_cast<std::uint16_t>((hi << 8) | u8());
  }
};

}  // namespace
}  // namespace detail

img::RgbImage decode(std::span<const std::byte> file) {
  using namespace detail;
  Parser p{file, 0};
  if (p.be16() != 0xffd8) throw Error("jpeg: missing SOI");

  std::array<std::optional<std::array<int, 64>>, 4> quant;  // natural order
  std::array<std::unique_ptr<HuffDecoder>, 4> dc_tables, ac_tables;
  std::vector<Component> comps;
  int width = 0, height = 0;
  int hmax = 1, vmax = 1;
  int restart_interval = 0;

  // --- marker segments up to SOS -----------------------------------------
  for (;;) {
    std::uint8_t m = p.u8();
    if (m != 0xff) throw Error("jpeg: expected marker");
    std::uint8_t code = p.u8();
    while (code == 0xff) code = p.u8();  // fill bytes are legal

    if (code == 0xdb) {  // DQT (may hold several tables)
      int len = p.be16() - 2;
      while (len > 0) {
        const std::uint8_t pq_tq = p.u8();
        if ((pq_tq >> 4) != 0) throw Error("jpeg: 16-bit quant unsupported");
        std::array<int, 64> t{};
        for (int i = 0; i < 64; ++i)
          t[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(i)])] =
              p.u8();
        quant[pq_tq & 3] = t;
        len -= 65;
      }
    } else if (code == 0xc4) {  // DHT (may hold several tables)
      int len = p.be16() - 2;
      while (len > 0) {
        const std::uint8_t tc_th = p.u8();
        if ((tc_th >> 4) > 1)
          throw Error("jpeg: bad Huffman table class");
        HuffSpec spec{};
        static thread_local std::array<std::uint8_t, 256> valbuf;
        int total = 0;
        for (int i = 0; i < 16; ++i) {
          spec.bits[static_cast<std::size_t>(i)] = p.u8();
          total += spec.bits[static_cast<std::size_t>(i)];
        }
        if (total > 256) throw Error("jpeg: oversized Huffman table");
        for (int i = 0; i < total; ++i) valbuf[static_cast<std::size_t>(i)] = p.u8();
        spec.vals = valbuf.data();
        spec.nvals = total;
        auto table = std::make_unique<HuffDecoder>(spec);
        if ((tc_th >> 4) == 0) {
          dc_tables[tc_th & 3] = std::move(table);
        } else {
          ac_tables[tc_th & 3] = std::move(table);
        }
        len -= 17 + total;
      }
    } else if (code == 0xc0) {  // SOF0 baseline
      p.be16();
      if (p.u8() != 8) throw Error("jpeg: only 8-bit precision supported");
      height = p.be16();
      width = p.be16();
      const int nc = p.u8();
      if (nc != 1 && nc != 3) throw Error("jpeg: 1 or 3 components only");
      if (width == 0 || height == 0)
        throw Error("jpeg: zero image dimensions");
      // Hostile-input hardening: bound the decoded size before allocating.
      if (static_cast<long long>(width) * height > (1LL << 24))
        throw Error("jpeg: image too large for this decoder");
      for (int i = 0; i < nc; ++i) {
        Component c;
        c.id = p.u8();
        const std::uint8_t hv = p.u8();
        c.h = hv >> 4;
        c.v = hv & 0xf;
        c.tq = p.u8();
        if (c.h < 1 || c.h > 2 || c.v < 1 || c.v > 2)
          throw Error("jpeg: unsupported sampling factors");
        if (c.tq > 3) throw Error("jpeg: bad quant table id");
        hmax = std::max(hmax, c.h);
        vmax = std::max(vmax, c.v);
        comps.push_back(c);
      }
    } else if (code == 0xda) {  // SOS
      p.be16();
      const int ns = p.u8();
      if (ns != static_cast<int>(comps.size()))
        throw Error("jpeg: non-interleaved scans unsupported");
      for (int i = 0; i < ns; ++i) {
        const int id = p.u8();
        const std::uint8_t tdta = p.u8();
        if ((tdta >> 4) > 3 || (tdta & 0xf) > 3)
          throw Error("jpeg: bad Huffman table selector");
        for (auto& c : comps)
          if (c.id == id) {
            c.td = tdta >> 4;
            c.ta = tdta & 0xf;
          }
      }
      p.u8(); p.u8(); p.u8();  // Ss, Se, Ah/Al
      break;
    } else if (code == 0xdd) {  // DRI
      if (p.be16() != 4) throw Error("jpeg: bad DRI length");
      restart_interval = p.be16();
    } else if (code == 0xd9) {
      throw Error("jpeg: EOI before SOS");
    } else if (code >= 0xc1 && code <= 0xcf && code != 0xc4 && code != 0xc8) {
      throw Error("jpeg: only baseline (SOF0) is supported");
    } else {  // APPn, COM, etc.: skip
      const int len = p.be16() - 2;
      if (len < 0) throw Error("jpeg: bad segment length");
      p.pos += static_cast<std::size_t>(len);
    }
  }
  if (width == 0 || height == 0 || comps.empty())
    throw Error("jpeg: missing SOF before SOS");

  // --- entropy-coded scan ---------------------------------------------------
  const int mcu_w = 8 * hmax, mcu_h = 8 * vmax;
  const int mcus_x = (width + mcu_w - 1) / mcu_w;
  const int mcus_y = (height + mcu_h - 1) / mcu_h;
  for (auto& c : comps) {
    c.width = mcus_x * 8 * c.h;
    c.height = mcus_y * 8 * c.v;
    c.samples.assign(
        static_cast<std::size_t>(c.width) * static_cast<std::size_t>(c.height),
        0.0);
  }

  BitReader br(file, p.pos);
  int mcu_index = 0;
  for (int my = 0; my < mcus_y; ++my) {
    for (int mx = 0; mx < mcus_x; ++mx) {
      if (restart_interval > 0 && mcu_index > 0 &&
          mcu_index % restart_interval == 0) {
        br.consume_restart();
        for (auto& c : comps) c.dc_pred = 0;
      }
      ++mcu_index;
      for (auto& c : comps) {
        if (!quant[static_cast<std::size_t>(c.tq)])
          throw Error("jpeg: missing quant table");
        if (!dc_tables[static_cast<std::size_t>(c.td)] ||
            !ac_tables[static_cast<std::size_t>(c.ta)])
          throw Error("jpeg: missing Huffman table");
        const auto& q = *quant[static_cast<std::size_t>(c.tq)];
        const auto& dct_dc = *dc_tables[static_cast<std::size_t>(c.td)];
        const auto& dct_ac = *ac_tables[static_cast<std::size_t>(c.ta)];
        for (int sv = 0; sv < c.v; ++sv) {
          for (int sh = 0; sh < c.h; ++sh) {
            // Decode one block.
            std::array<int, 64> zz{};
            const int dc_cat = decode_symbol(br, dct_dc);
            // 8-bit samples bound a DC difference to category 11 (T.81
            // Table F.1); a larger symbol comes from a corrupt table.
            if (dc_cat > 11)
              throw Error("jpeg: DC category " + std::to_string(dc_cat) +
                          " exceeds 11");
            const int diff = extend(br.bits(dc_cat), dc_cat);
            c.dc_pred += diff;
            zz[0] = c.dc_pred;
            for (int k = 1; k < 64;) {
              const int sym = decode_symbol(br, dct_ac);
              if (sym == 0x00) break;  // EOB
              if (sym == 0xf0) {       // ZRL
                k += 16;
                continue;
              }
              k += sym >> 4;
              if (k > 63) throw Error("jpeg: AC run past block end");
              const int cat = sym & 0xf;
              zz[static_cast<std::size_t>(k)] = extend(br.bits(cat), cat);
              ++k;
            }
            // Dequantize into natural order and inverse transform.
            Block block{};
            for (int i = 0; i < 64; ++i) {
              const int nat = kZigzag[static_cast<std::size_t>(i)];
              block[static_cast<std::size_t>(nat)] =
                  static_cast<double>(zz[static_cast<std::size_t>(i)]) *
                  q[static_cast<std::size_t>(nat)];
            }
            idct8x8(block);
            const int x0 = (mx * c.h + sh) * 8;
            const int y0 = (my * c.v + sv) * 8;
            for (int yy = 0; yy < 8; ++yy)
              for (int xx = 0; xx < 8; ++xx)
                c.samples[static_cast<std::size_t>(y0 + yy) *
                              static_cast<std::size_t>(c.width) +
                          static_cast<std::size_t>(x0 + xx)] =
                    block[static_cast<std::size_t>(yy * 8 + xx)] + 128.0;
          }
        }
      }
    }
  }

  // --- upsample + color convert ---------------------------------------------
  img::RgbImage out(static_cast<std::uint32_t>(width),
                    static_cast<std::uint32_t>(height));
  auto sample = [&](const Component& c, int x, int y) {
    // Map image coordinates to component coordinates (nearest neighbour).
    const int cx = std::min(x * c.h / hmax, c.width - 1);
    const int cy = std::min(y * c.v / vmax, c.height - 1);
    return c.samples[static_cast<std::size_t>(cy) *
                         static_cast<std::size_t>(c.width) +
                     static_cast<std::size_t>(cx)];
  };
  auto clamp8 = [](double v) {
    return static_cast<std::uint8_t>(std::clamp(std::lround(v), 0L, 255L));
  };
  for (int y = 0; y < height; ++y)
    for (int x = 0; x < width; ++x) {
      const double Y = sample(comps[0], x, y);
      double Cb = 128.0, Cr = 128.0;
      if (comps.size() == 3) {
        Cb = sample(comps[1], x, y);
        Cr = sample(comps[2], x, y);
      }
      img::Rgb& px = out.at(static_cast<std::uint32_t>(x),
                            static_cast<std::uint32_t>(y));
      px.r = clamp8(Y + 1.402 * (Cr - 128.0));
      px.g = clamp8(Y - 0.344136 * (Cb - 128.0) - 0.714136 * (Cr - 128.0));
      px.b = clamp8(Y + 1.772 * (Cb - 128.0));
    }
  return out;
}

}  // namespace jpeg
