// Traced-bytes oracle: for random mutually-exclusive+complete owned
// partitions and random needed boxes (1D/2D/3D, all three backends), the
// per-peer byte totals recorded by the trace layer must equal an
// independently computed geometric overlap oracle — intersection volumes of
// owned chunks against needed chunks, with self lanes excluded.

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "ddr/ddr.hpp"
#include "minimpi/minimpi.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"

namespace {

using ddr::Backend;
using ddr::Box;
using ddr::Chunk;
using ddr_test::box_to_chunk;
using ddr_test::fill_chunk;
using ddr_test::random_partition;
using ddr_test::random_subbox;

struct Scenario {
  int ndims;
  int nranks;
  Backend backend;
  unsigned seed;
};

// "fused" names the fused-lane executor, Backend::point_to_point_pipelined.
std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  return "d" + std::to_string(info.param.ndims) + "_p" +
         std::to_string(info.param.nranks) + "_" +
         (info.param.backend == Backend::alltoallw ? "w" : "fused");
}

Box make_domain(int ndims, std::mt19937& rng) {
  Box d;
  d.ndims = ndims;
  std::uniform_int_distribution<std::int64_t> ext(4, 24);
  for (int k = 0; k < ndims; ++k) {
    d.lo[static_cast<std::size_t>(k)] = 0;
    d.hi[static_cast<std::size_t>(k)] = ext(rng);
  }
  return d;
}

/// Independent oracle: bytes rank `from` must send rank `to` — the summed
/// intersection volume of every owned chunk of `from` against every needed
/// chunk of `to` (each needed chunk receives its own copy, matching the
/// mapping's per-needed-chunk enumeration).
std::int64_t overlap_bytes(const std::vector<ddr::OwnedLayout>& owned,
                           const std::vector<ddr::NeededLayout>& needed,
                           int from, int to, std::size_t elem_size) {
  std::int64_t vol = 0;
  for (const Chunk& o : owned[static_cast<std::size_t>(from)])
    for (const Chunk& n : needed[static_cast<std::size_t>(to)])
      vol += ddr::intersect(o.box(), n.box()).volume();
  return vol * static_cast<std::int64_t>(elem_size);
}

class TracedBytes : public ::testing::TestWithParam<Scenario> {};

TEST_P(TracedBytes, MatchOverlapOracle) {
  const Scenario sc = GetParam();
  std::mt19937 rng(sc.seed);

  for (int trial = 0; trial < 4; ++trial) {
    const Box domain = make_domain(sc.ndims, rng);
    const auto boxes =
        random_partition(domain, sc.nranks * 2 + sc.nranks / 2, rng);
    std::vector<ddr::OwnedLayout> owned(static_cast<std::size_t>(sc.nranks));
    for (std::size_t i = 0; i < boxes.size(); ++i)
      owned[i % static_cast<std::size_t>(sc.nranks)].push_back(
          box_to_chunk(boxes[i]));
    std::vector<ddr::NeededLayout> needed(static_cast<std::size_t>(sc.nranks));
    for (int r = 0; r < sc.nranks; ++r)
      needed[static_cast<std::size_t>(r)] = {
          box_to_chunk(random_subbox(domain, rng))};

    std::vector<trace::Recorder> recs;
    recs.reserve(static_cast<std::size_t>(sc.nranks));
    for (int r = 0; r < sc.nranks; ++r) recs.emplace_back(r);

    mpi::run(sc.nranks, [&](mpi::Comm& comm) {
      const auto rank = static_cast<std::size_t>(comm.rank());
      ddr::Redistributor rd(comm, sizeof(float));
      rd.trace_sink(&recs[rank]);
      ddr::SetupOptions opts;
      opts.backend = sc.backend;
      rd.setup(owned[rank], needed[rank], opts);
      recs[rank].clear();

      std::vector<float> own_data;
      for (const auto& c : owned[rank]) {
        const auto v = fill_chunk(c);
        own_data.insert(own_data.end(), v.begin(), v.end());
      }
      std::vector<float> need_data(rd.needed_bytes() / sizeof(float), -1.0f);
      rd.redistribute(std::as_bytes(std::span<const float>(own_data)),
                      std::as_writable_bytes(std::span<float>(need_data)));
    });

    for (int r = 0; r < sc.nranks; ++r) {
      const auto& ev = recs[static_cast<std::size_t>(r)].events();
      ASSERT_TRUE(trace::spans_balanced(ev));
      const auto sent = trace::bytes_by_peer(ev, "ddr.msg.send");
      const auto recvd = trace::bytes_by_peer(ev, "ddr.msg.recv");
      for (int q = 0; q < sc.nranks; ++q) {
        const std::int64_t exp_send =
            q == r ? 0 : overlap_bytes(owned, needed, r, q, sizeof(float));
        const std::int64_t exp_recv =
            q == r ? 0 : overlap_bytes(owned, needed, q, r, sizeof(float));
        const auto it_s = sent.find(q);
        const auto it_r = recvd.find(q);
        EXPECT_EQ(it_s != sent.end() ? it_s->second : 0, exp_send)
            << "trial " << trial << " send " << r << " -> " << q;
        EXPECT_EQ(it_r != recvd.end() ? it_r->second : 0, exp_recv)
            << "trial " << trial << " recv " << r << " <- " << q;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TracedBytes,
    ::testing::Values(Scenario{1, 4, Backend::alltoallw, 501},
                      Scenario{1, 5, Backend::point_to_point_pipelined, 502},
                      Scenario{1, 3, Backend::point_to_point_pipelined, 503},
                      Scenario{2, 4, Backend::alltoallw, 601},
                      Scenario{2, 6, Backend::point_to_point_pipelined, 602},
                      Scenario{2, 5, Backend::point_to_point_pipelined, 603},
                      Scenario{3, 4, Backend::alltoallw, 701},
                      Scenario{3, 5, Backend::point_to_point_pipelined, 702},
                      Scenario{3, 6, Backend::point_to_point_pipelined, 703}),
    scenario_name);

}  // namespace
