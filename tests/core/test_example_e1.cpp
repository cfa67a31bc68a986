// End-to-end reproduction of the paper's worked example E1 (Fig. 1,
// Algorithm 1, Table I): a 4-rank application on an 8x8 float domain where
// each rank owns two 8x1 rows and needs one 4x4 quadrant.
//
// This test follows Algorithm 1 line by line through the paper's C-style
// API and verifies both Table I's parameter values and Fig. 1A's
// before/after data placement.

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "ddr/ddr.hpp"
#include "minimpi/minimpi.hpp"

namespace {

float global_value(int x, int y) { return static_cast<float>(y * 8 + x); }

/// Table I, rows "Rank 0".."Rank 3": expected P4..P7 values.
struct TableIRow {
  std::array<int, 4> p4;  // {[8,1],[8,1]} flattened
  std::array<int, 4> p5;  // send offsets flattened
  std::array<int, 2> p6;  // recv dims
  std::array<int, 2> p7;  // recv offsets
};

TableIRow table1_row(int rank) {
  TableIRow row;
  row.p4 = {8, 1, 8, 1};
  row.p5 = {0, rank, 0, rank + 4};
  row.p6 = {4, 4};
  const int right = rank % 2;
  const int bottom = rank / 2;
  row.p7 = {4 * right, 4 * bottom};
  return row;
}

TEST(ExampleE1, AlgorithmOneReproducesFigureOne) {
  mpi::run(4, [](mpi::Comm& comm) {
    const int rank = comm.rank();
    const int nprocs = comm.size();

    // Line 1: desc = DDR_NewDataDescriptor(nProcesses, DATA_TYPE_2D,
    //                                      MPI_FLOAT, sizeof(float))
    DDR_DataDescriptor* desc = DDR_NewDataDescriptor(
        nprocs, DDR_DATA_TYPE_2D, DDR_FLOAT, sizeof(float), comm);

    // Lines 2-8: parameter construction, exactly as printed.
    const int chunks_own = 2;
    const int dims_own[] = {8, 1, 8, 1};
    const int offsets_own[] = {0, rank, 0, rank + 4};
    const int right = rank % 2;
    const int bottom = rank / 2;
    const int dims_need[] = {4, 4};
    const int offsets_need[] = {4 * right, 4 * bottom};

    // Cross-check the constructed values against Table I.
    const TableIRow expect = table1_row(rank);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(dims_own[i], expect.p4[static_cast<std::size_t>(i)]);
      EXPECT_EQ(offsets_own[i], expect.p5[static_cast<std::size_t>(i)]);
    }
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(dims_need[i], expect.p6[static_cast<std::size_t>(i)]);
      EXPECT_EQ(offsets_need[i], expect.p7[static_cast<std::size_t>(i)]);
    }

    // data_own: rows `rank` and `rank+4` of the global 8x8 domain
    // (Fig. 1A, left grid).
    std::vector<float> data_own(16);
    for (int x = 0; x < 8; ++x) {
      data_own[static_cast<std::size_t>(x)] = global_value(x, rank);
      data_own[static_cast<std::size_t>(8 + x)] = global_value(x, rank + 4);
    }
    std::vector<float> data_need(16, -1.0f);

    // Line 9: DDR_SetupDataMapping(...)
    DDR_SetupDataMapping(rank, nprocs, chunks_own, dims_own, offsets_own,
                         dims_need, offsets_need, desc);

    // Line 10: DDR_ReorganizeData(...)
    DDR_ReorganizeData(nprocs, data_own.data(), data_need.data(), desc);

    // Fig. 1A, right grid: rank r now holds its 4x4 quadrant.
    for (int y = 0; y < 4; ++y)
      for (int x = 0; x < 4; ++x)
        EXPECT_EQ(data_need[static_cast<std::size_t>(y * 4 + x)],
                  global_value(x + 4 * right, y + 4 * bottom))
            << "rank " << rank << " local (" << x << "," << y << ")";

    DDR_FreeDataDescriptor(desc);
  });
}

TEST(ExampleE1, ReorganizeIsRepeatableOnDynamicData) {
  // Paper §III-C: "When dealing with dynamic data, DDR_ReorganizeData can be
  // called each time processes own new data without needing to initialize
  // the library or set up the data mapping again."
  mpi::run(4, [](mpi::Comm& comm) {
    const int rank = comm.rank();
    DDR_DataDescriptor* desc = DDR_NewDataDescriptor(
        4, DDR_DATA_TYPE_2D, DDR_FLOAT, sizeof(float), comm);
    const int dims_own[] = {8, 1, 8, 1};
    const int offsets_own[] = {0, rank, 0, rank + 4};
    const int dims_need[] = {4, 4};
    const int offsets_need[] = {4 * (rank % 2), 4 * (rank / 2)};
    DDR_SetupDataMapping(rank, 4, 2, dims_own, offsets_own, dims_need,
                         offsets_need, desc);

    for (int step = 0; step < 5; ++step) {
      std::vector<float> own(16), need(16, -1.0f);
      for (int x = 0; x < 8; ++x) {
        own[static_cast<std::size_t>(x)] =
            global_value(x, rank) + 100.0f * static_cast<float>(step);
        own[static_cast<std::size_t>(8 + x)] =
            global_value(x, rank + 4) + 100.0f * static_cast<float>(step);
      }
      DDR_ReorganizeData(4, own.data(), need.data(), desc);
      for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
          EXPECT_EQ(need[static_cast<std::size_t>(y * 4 + x)],
                    global_value(x + 4 * (rank % 2), y + 4 * (rank / 2)) +
                        100.0f * static_cast<float>(step));
    }
    DDR_FreeDataDescriptor(desc);
  });
}

TEST(ExampleE1, ScheduleStatsMatchHandCount) {
  mpi::run(4, [](mpi::Comm& comm) {
    const int rank = comm.rank();
    DDR_DataDescriptor* desc = DDR_NewDataDescriptor(
        4, DDR_DATA_TYPE_2D, DDR_FLOAT, sizeof(float), comm);
    const int dims_own[] = {8, 1, 8, 1};
    const int offsets_own[] = {0, rank, 0, rank + 4};
    const int dims_need[] = {4, 4};
    const int offsets_need[] = {4 * (rank % 2), 4 * (rank / 2)};
    DDR_SetupDataMapping(rank, 4, 2, dims_own, offsets_own, dims_need,
                         offsets_need, desc);

    const ddr::Redistributor& engine = DDR_GetRedistributor(desc);
    EXPECT_EQ(engine.rounds(), 2);  // max chunks owned by any rank
    const ddr::MappingStats& s = engine.stats();
    EXPECT_EQ(s.network_bytes, 48 * static_cast<std::int64_t>(sizeof(float)));
    EXPECT_EQ(s.self_bytes, 16 * static_cast<std::int64_t>(sizeof(float)));
    DDR_FreeDataDescriptor(desc);
  });
}

TEST(ExampleE1, CApiValidatesArguments) {
  mpi::run(2, [](mpi::Comm& comm) {
    const int rank = comm.rank();
    // nprocs mismatch with the communicator is caught immediately.
    EXPECT_THROW(DDR_NewDataDescriptor(5, DDR_DATA_TYPE_2D, DDR_FLOAT,
                                       sizeof(float), comm),
                 ddr::Error);
    // So is an element size the engine rejects, without leaking the
    // descriptor (LeakSanitizer reports a leak under the asan preset).
    EXPECT_THROW(
        DDR_NewDataDescriptor(2, DDR_DATA_TYPE_1D, DDR_BYTES, 0, comm),
        ddr::Error);
    EXPECT_THROW(DDR_NewDataDescriptor(2, DDR_DATA_TYPE_1D, DDR_BYTES,
                                       std::size_t{1} << 31, comm),
                 ddr::Error);

    // A rank that owns nothing may pass null owned arrays: rank 0 owns the
    // whole 8-float domain and each rank needs one half.
    DDR_DataDescriptor* desc = DDR_NewDataDescriptor(
        2, DDR_DATA_TYPE_1D, DDR_FLOAT, sizeof(float), comm);
    const int dims_own[] = {8}, offsets_own[] = {0};
    const int dims_need[] = {4}, offsets_need[] = {4 * rank};
    DDR_SetupDataMapping(rank, 2, rank == 0 ? 1 : 0,
                         rank == 0 ? dims_own : nullptr,
                         rank == 0 ? offsets_own : nullptr, dims_need,
                         offsets_need, desc);
    std::vector<float> own(rank == 0 ? 8 : 0), need(4, -1.0f);
    for (std::size_t i = 0; i < own.size(); ++i)
      own[i] = static_cast<float>(i);
    DDR_ReorganizeData(2, rank == 0 ? own.data() : nullptr, need.data(), desc);
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(need[static_cast<std::size_t>(i)],
                static_cast<float>(4 * rank + i))
          << "rank " << rank;
    DDR_FreeDataDescriptor(desc);
  });
  EXPECT_THROW(DDR_SetupDataMapping(0, 1, 0, nullptr, nullptr, nullptr,
                                    nullptr, nullptr),
               ddr::Error);
  EXPECT_THROW(DDR_ReorganizeData(1, nullptr, nullptr, nullptr), ddr::Error);

  mpi::run(1, [](mpi::Comm& comm) {
    DDR_DataDescriptor* desc = DDR_NewDataDescriptor(
        1, DDR_DATA_TYPE_1D, DDR_FLOAT, sizeof(float), comm);
    const int dims[] = {8}, offsets[] = {0};
    // A null array that describes chunks is rejected before it is read.
    EXPECT_THROW(DDR_SetupDataMapping(0, 1, 1, dims, offsets, nullptr,
                                      nullptr, desc),
                 ddr::Error);
    EXPECT_THROW(DDR_SetupDataMapping(0, 1, 1, nullptr, offsets, dims,
                                      offsets, desc),
                 ddr::Error);
    EXPECT_THROW(DDR_SetupDataMapping(0, 1, 1, dims, nullptr, dims, offsets,
                                      desc),
                 ddr::Error);
    EXPECT_THROW(DDR_SetupDataMappingMulti(0, 1, 1, dims, offsets, 1,
                                           nullptr, offsets, desc),
                 ddr::Error);
    EXPECT_THROW(DDR_SetupDataMappingMulti(0, 1, 1, dims, offsets, 1, dims,
                                           nullptr, desc),
                 ddr::Error);

    // A null data buffer the layout needs bytes in is a short buffer.
    DDR_SetupDataMapping(0, 1, 1, dims, offsets, dims, offsets, desc);
    std::vector<float> own(8, 1.0f), need(8, 0.0f);
    EXPECT_THROW(DDR_ReorganizeData(1, nullptr, need.data(), desc),
                 ddr::Error);
    EXPECT_THROW(DDR_ReorganizeData(1, own.data(), nullptr, desc),
                 ddr::Error);
    DDR_ReorganizeData(1, own.data(), need.data(), desc);
    EXPECT_EQ(need, own);
    DDR_FreeDataDescriptor(desc);
  });
}

}  // namespace
