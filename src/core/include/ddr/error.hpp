#pragma once

/// \file error.hpp
/// DDR library errors (layout contract violations, misuse).

#include <stdexcept>
#include <string>

namespace ddr {

/// Thrown on API misuse or when the paper's layout contract is violated
/// (e.g. owned chunks that overlap or leave holes).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

inline void require(bool cond, const std::string& what) {
  if (!cond) throw Error(what);
}

}  // namespace ddr
