#pragma once

/// \file suite.hpp
/// The benchmark's workloads. Each runs one closed-loop op sequence on four
/// rank threads for Options::seconds and returns its metrics.

#include "harness.hpp"

namespace bench {

/// 256^3 floats, 2x2 pencil grid, forward+inverse transpose chain per op
/// under the simnet Cooley link model: steady-state redistribution.
Report run_pencil_fft(const Options& o);

/// 64^3 floats in 4096 blocks dealt to ranks at random every op; each op is
/// a fresh Redistributor, setup(automatic) and one redistribute().
Report run_rebalance(const Options& o);

/// In-transit LBM -> stream -> DDR -> colormap -> JPEG, one frame per op.
Report run_insitu_lbm(const Options& o);

/// TIFF series -> PreparedLoad::execute -> distributed DVR -> JPEG.
Report run_tiff_volume(const Options& o);

}  // namespace bench
