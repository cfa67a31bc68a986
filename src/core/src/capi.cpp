#include "ddr/ddr.h"

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ddr/error.hpp"
#include "ddr/redistributor.hpp"

/// The opaque descriptor: descriptor metadata plus the C++ engine.
struct DDR_DataDescriptor {
  int nprocs = 0;
  DDR_DataType data_type = DDR_DATA_TYPE_1D;
  DDR_ElementType element_type = DDR_BYTES;
  std::size_t element_size = 0;
  std::unique_ptr<ddr::Redistributor> engine;
};

DDR_DataDescriptor* DDR_NewDataDescriptor(int nprocs, DDR_DataType data_type,
                                          DDR_ElementType element_type,
                                          std::size_t element_size,
                                          const mpi::Comm& comm) {
  ddr::require(comm.valid(), "DDR_NewDataDescriptor: invalid communicator");
  ddr::require(nprocs == comm.size(),
               "DDR_NewDataDescriptor: nprocs (" + std::to_string(nprocs) +
                   ") != communicator size (" + std::to_string(comm.size()) +
                   ")");
  ddr::require(data_type >= DDR_DATA_TYPE_1D && data_type <= DDR_DATA_TYPE_3D,
               "DDR_NewDataDescriptor: data_type must be 1D, 2D or 3D");
  // The engine validates the element size and may throw: held by a
  // unique_ptr until then, the descriptor cannot leak.
  auto desc = std::make_unique<DDR_DataDescriptor>();
  desc->nprocs = nprocs;
  desc->data_type = data_type;
  desc->element_type = element_type;
  desc->element_size = element_size;
  desc->engine = std::make_unique<ddr::Redistributor>(comm, element_size);
  return desc.release();
}

namespace {

/// The `chunks` chunks that the flattened arrays `dims` and `offsets`
/// describe, chunks * nd ints each (paper §III-B: "the number of total
/// elements in the sending dimensions and offsets parameters must be equal
/// to the number of chunks owned ... multiplied by the number of
/// dimensions"). A null array is rejected unless it describes no chunk.
std::vector<ddr::Chunk> read_chunks(const std::string& what, int nd,
                                    int chunks, const int* dims,
                                    const int* offsets) {
  ddr::require(chunks == 0 || (dims != nullptr && offsets != nullptr),
               what + " is null but describes " + std::to_string(chunks) +
                   " chunk(s)");
  const auto n = static_cast<std::size_t>(nd);
  std::vector<ddr::Chunk> out;
  out.reserve(static_cast<std::size_t>(chunks));
  for (int c = 0; c < chunks; ++c)
    out.emplace_back(nd, std::span<const int>(dims + c * nd, n),
                     std::span<const int>(offsets + c * nd, n));
  return out;
}

/// Both setup entry points: checks the arguments, reads the chunk arrays
/// and runs the collective setup.
void setup_mapping(const std::string& what, int rank, int nprocs,
                   int chunks_own, const int* dims_own, const int* offsets_own,
                   int chunks_need, const int* dims_need,
                   const int* offsets_need, DDR_DataDescriptor* desc) {
  ddr::require(desc != nullptr && desc->engine != nullptr,
               what + ": null descriptor");
  ddr::require(nprocs == desc->nprocs,
               what + ": nprocs differs from the descriptor's");
  ddr::require(rank == desc->engine->comm().rank(),
               what + ": rank differs from the communicator's");
  ddr::require(chunks_own >= 0 && chunks_need >= 1,
               what + ": bad chunk counts");
  const int nd = static_cast<int>(desc->data_type);
  const ddr::OwnedLayout owned = read_chunks(
      what + ": dims_own/offsets_own", nd, chunks_own, dims_own, offsets_own);
  const ddr::NeededLayout needed =
      read_chunks(what + ": dims_need/offsets_need", nd, chunks_need,
                  dims_need, offsets_need);
  desc->engine->setup(owned, needed);
}

}  // namespace

void DDR_SetupDataMapping(int rank, int nprocs, int chunks_own,
                          const int* dims_own, const int* offsets_own,
                          const int* dims_need, const int* offsets_need,
                          DDR_DataDescriptor* desc) {
  setup_mapping("DDR_SetupDataMapping", rank, nprocs, chunks_own, dims_own,
                offsets_own, 1, dims_need, offsets_need, desc);
}

void DDR_SetupDataMappingMulti(int rank, int nprocs, int chunks_own,
                               const int* dims_own, const int* offsets_own,
                               int chunks_need, const int* dims_need,
                               const int* offsets_need,
                               DDR_DataDescriptor* desc) {
  setup_mapping("DDR_SetupDataMappingMulti", rank, nprocs, chunks_own,
                dims_own, offsets_own, chunks_need, dims_need, offsets_need,
                desc);
}

void DDR_ReorganizeData(int nprocs, const void* data_own, void* data_need,
                        DDR_DataDescriptor* desc) {
  ddr::require(desc != nullptr && desc->engine != nullptr,
               "DDR_ReorganizeData: null descriptor");
  ddr::require(nprocs == desc->nprocs,
               "DDR_ReorganizeData: nprocs differs from the descriptor's");
  const ddr::Redistributor& r = *desc->engine;
  // A null buffer is passed on as an empty one, so redistribute()'s
  // precondition check rejects it on every rank as a short buffer whenever
  // the layout needs bytes there.
  r.redistribute(
      std::span<const std::byte>(static_cast<const std::byte*>(data_own),
                                 data_own != nullptr ? r.owned_bytes() : 0),
      std::span<std::byte>(static_cast<std::byte*>(data_need),
                           data_need != nullptr ? r.needed_bytes() : 0));
}

void DDR_FreeDataDescriptor(DDR_DataDescriptor* desc) { delete desc; }

ddr::Redistributor& DDR_GetRedistributor(DDR_DataDescriptor* desc) {
  ddr::require(desc != nullptr && desc->engine != nullptr,
               "DDR_GetRedistributor: null descriptor");
  return *desc->engine;
}
