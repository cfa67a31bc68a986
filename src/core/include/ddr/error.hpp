#pragma once

/// \file error.hpp
/// DDR library errors (layout contract violations, misuse).

#include <stdexcept>
#include <string>
#include <string_view>

namespace ddr {

/// Thrown on API misuse or when the paper's layout contract is violated
/// (e.g. owned chunks that overlap or leave holes).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws ddr::Error if `cond` is false. A literal message builds no
/// std::string unless the check fails.
inline void require(bool cond, std::string_view what) {
  if (!cond) throw Error(std::string(what));
}

}  // namespace ddr
