#pragma once

/// \file ddr.h
/// The paper's public API, verbatim in shape: three calls to integrate
/// dynamic data redistribution into an existing application (§III).
///
///   desc = DDR_NewDataDescriptor(nprocs, DDR_DATA_TYPE_2D, DDR_FLOAT,
///                                sizeof(float), comm);
///   DDR_SetupDataMapping(rank, nprocs, chunks_own, dims_own, offsets_own,
///                        dims_need, offsets_need, desc);
///   DDR_ReorganizeData(nprocs, data_own, data_need, desc);
///   ...                       /* on dynamic data: reorganize again, no   */
///   DDR_ReorganizeData(...);  /* new descriptor or mapping needed        */
///   DDR_FreeDataDescriptor(desc);
///
/// Deviation from the paper, documented in DESIGN.md: the original rides on
/// the ambient MPI_COMM_WORLD; minimpi has no process-global communicator,
/// so the descriptor captures an mpi::Comm at creation. Everything else —
/// parameter order, the flattened dims/offsets arrays of Table I, the
/// "many chunks in, one chunk out" contract — matches the paper.

#include <cstddef>

#include "minimpi/comm.hpp"

namespace ddr {
class Redistributor;
}  // namespace ddr

/// Dimensionality of the data domain (paper: "whether the data is organized
/// in a 1D, 2D, or 3D array").
enum DDR_DataType {
  DDR_DATA_TYPE_1D = 1,
  DDR_DATA_TYPE_2D = 2,
  DDR_DATA_TYPE_3D = 3,
};

/// Element type of the array (the paper passes an MPI datatype; only the
/// element byte size affects the transfer, the enum is kept for API parity
/// and introspection).
enum DDR_ElementType {
  DDR_UINT8,
  DDR_INT32,
  DDR_UINT32,
  DDR_FLOAT,
  DDR_DOUBLE,
  DDR_BYTES,  ///< raw bytes of the size given at descriptor creation
};

/// Opaque descriptor created by DDR_NewDataDescriptor.
struct DDR_DataDescriptor;

/// Creates a descriptor for data to be redistributed.
/// \param nprocs        number of processes in the application (must equal
///                      comm.size())
/// \param data_type     1D / 2D / 3D
/// \param element_type  element type tag
/// \param element_size  bytes per element, in [1, 2^31)
/// \param comm          communicator spanning the application's ranks
/// \returns a descriptor to pass to the other DDR calls; release with
///          DDR_FreeDataDescriptor. Throws ddr::Error on a bad argument.
DDR_DataDescriptor* DDR_NewDataDescriptor(int nprocs, DDR_DataType data_type,
                                          DDR_ElementType element_type,
                                          std::size_t element_size,
                                          const mpi::Comm& comm);

/// Declares what this process owns and needs; collective over the
/// descriptor's communicator (paper §III-B, parameters P1..P8 of Table I).
///
/// \param rank          calling process's rank (P1)
/// \param nprocs        number of processes (P2)
/// \param chunks_own    number of chunks this process owns (P3)
/// \param dims_own      flattened chunk dimensions, chunks_own * ndims ints,
///                      fastest axis first: {[x,y], [x,y], ...} (P4)
/// \param offsets_own   flattened chunk offsets, same shape (P5)
/// \param dims_need     dimensions of the one needed chunk, ndims ints (P6)
/// \param offsets_need  offsets of the needed chunk, ndims ints (P7)
/// \param desc          the descriptor (P8)
/// Throws ddr::Error, before reading it, on a null array that describes a
/// chunk (dims_own/offsets_own may be null when chunks_own is 0).
void DDR_SetupDataMapping(int rank, int nprocs, int chunks_own,
                          const int* dims_own, const int* offsets_own,
                          const int* dims_need, const int* offsets_need,
                          DDR_DataDescriptor* desc);

/// Extension beyond the paper (its §V future work): like
/// DDR_SetupDataMapping but the calling process may need SEVERAL chunks,
/// packed consecutively in the destination buffer. `dims_need` and
/// `offsets_need` hold chunks_need * ndims entries, mirroring P4/P5. Null
/// arrays are rejected as in DDR_SetupDataMapping.
void DDR_SetupDataMappingMulti(int rank, int nprocs, int chunks_own,
                               const int* dims_own, const int* offsets_own,
                               int chunks_need, const int* dims_need,
                               const int* offsets_need,
                               DDR_DataDescriptor* desc);

/// Exchanges the data between processes with MPI_Alltoallw rounds
/// (paper §III-C). Collective. `data_own` holds the owned chunks packed
/// consecutively; `data_need` receives the needed chunk(s). May be called
/// repeatedly as the data changes. A null buffer counts as empty, so every
/// rank throws ddr::Error when the layout needs bytes there.
void DDR_ReorganizeData(int nprocs, const void* data_own, void* data_need,
                        DDR_DataDescriptor* desc);

/// Releases a descriptor.
void DDR_FreeDataDescriptor(DDR_DataDescriptor* desc);

/// Access to the underlying C++ engine (schedule stats, backend selection);
/// an extension beyond the paper's three calls.
ddr::Redistributor& DDR_GetRedistributor(DDR_DataDescriptor* desc);
