#pragma once

#include <vector>

namespace ntr::linalg {

using Vector = std::vector<double>;

}  // namespace ntr::linalg
