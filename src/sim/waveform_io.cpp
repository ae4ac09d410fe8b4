#include "sim/waveform_io.h"

#include <ostream>
#include <stdexcept>

namespace ntr::sim {

void write_waveform_csv(std::ostream& os, const TransientSimulator::Waveform& waveform,
                        std::span<const std::string> column_names) {
  if (column_names.size() != waveform.voltage_v.size())
    throw std::invalid_argument(
        "write_waveform_csv: one column name per watched node required");
  os << "time_s";
  for (const std::string& name : column_names) os << ',' << name;
  os << '\n';
  os.precision(9);
  for (std::size_t i = 0; i < waveform.time_s.size(); ++i) {
    os << waveform.time_s[i];
    for (const std::vector<double>& column : waveform.voltage_v) {
      if (column.size() != waveform.time_s.size())
        throw std::invalid_argument("write_waveform_csv: ragged waveform");
      os << ',' << column[i];
    }
    os << '\n';
  }
}

}  // namespace ntr::sim
