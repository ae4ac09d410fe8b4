#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "sim/transient.h"

namespace ntr::sim {

/// Writes a captured waveform as CSV: a `time_s` column followed by one
/// column per watched node. `column_names` must match the watch list the
/// waveform was recorded with (size checked). Plot-ready with any
/// spreadsheet / gnuplot / matplotlib.
void write_waveform_csv(std::ostream& os, const TransientSimulator::Waveform& waveform,
                        std::span<const std::string> column_names);

}  // namespace ntr::sim
