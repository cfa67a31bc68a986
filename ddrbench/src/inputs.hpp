#pragma once

/// \file inputs.hpp
/// Seeded input generators. Every input a workload feeds the library comes
/// from here, keyed by the run's --seed, so one seed always yields the same
/// bytes (checked by ddrbench_selftest).

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace bench {

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return mix(a ^ mix(b));
}

/// Fills `out` with seeded floats in [-0.5, 0.5); `stream` separates
/// independent fills (e.g. one per rank) under one seed.
inline void fill_floats(std::span<float> out, std::uint64_t seed,
                        std::uint64_t stream) {
  std::uint64_t s = mix(seed, stream);
  for (float& f : out) {
    s = mix(s);
    f = static_cast<float>(s >> 40) * (1.0f / 16777216.0f) - 0.5f;
  }
}

/// Deals blocks [0, nblocks) to `nranks` ranks at random: a seeded shuffle,
/// then equal consecutive shares (rank r gets the r-th share, in shuffled
/// order). Every rank computes the same deal without communication.
inline std::vector<std::vector<int>> deal_blocks(std::uint64_t seed,
                                                 std::uint64_t op, int nblocks,
                                                 int nranks) {
  std::vector<int> order(static_cast<std::size_t>(nblocks));
  for (int i = 0; i < nblocks; ++i) order[static_cast<std::size_t>(i)] = i;
  std::uint64_t s = mix(seed, 0xdea1000000000000ULL + op);
  for (int i = nblocks - 1; i > 0; --i) {
    s = mix(s);
    const auto j =
        static_cast<std::size_t>(s % static_cast<std::uint64_t>(i + 1));
    std::swap(order[static_cast<std::size_t>(i)], order[j]);
  }
  std::vector<std::vector<int>> share(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    const auto lo = static_cast<std::ptrdiff_t>(std::int64_t{nblocks} * r /
                                                nranks);
    const auto hi = static_cast<std::ptrdiff_t>(std::int64_t{nblocks} *
                                                (r + 1) / nranks);
    share[static_cast<std::size_t>(r)].assign(order.begin() + lo,
                                              order.begin() + hi);
  }
  return share;
}

/// Per-op salt of the rebalance fill, so stale data from an earlier op can
/// never pass the check.
inline std::uint32_t op_salt(std::uint64_t seed, std::uint64_t op) {
  return static_cast<std::uint32_t>(mix(seed, op) & 0xffffffU);
}

/// Closed-form fill f(x, y, z) of the rebalance domain (extent `n` per
/// axis). Integer-valued below 2^24, so every value is exact in a float.
inline float cell_value(std::uint32_t salt, int x, int y, int z, int n) {
  const auto idx = static_cast<std::uint32_t>(x + n * (y + n * z));
  return static_cast<float>((idx + salt) & 0xffffffU);
}

/// Seeded 10-bit texture added to the TIFF phantom's density.
inline std::uint32_t voxel_noise(std::uint64_t seed, std::uint64_t index) {
  return static_cast<std::uint32_t>(mix(seed, index) & 0x3ffU);
}

}  // namespace bench
