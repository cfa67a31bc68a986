#pragma once

/// \file error.hpp
/// Error handling for the minimpi runtime.
///
/// minimpi reports misuse (bad arguments, type mismatches, truncation) by
/// throwing mpi::Error. This mirrors MPI's MPI_ERRORS_RETURN class of errors
/// but uses idiomatic C++ exceptions instead of integer return codes.

#include <stdexcept>
#include <string>
#include <string_view>

namespace mpi {

/// Error classes, loosely following the MPI standard's error classes.
enum class ErrorClass {
  invalid_argument,  ///< a parameter was out of range or inconsistent
  invalid_rank,      ///< source/destination rank outside the communicator
  invalid_tag,       ///< tag outside the permitted user range
  invalid_datatype,  ///< malformed or incompatible datatype
  truncate,          ///< receive buffer smaller than the matched message
  invalid_comm,      ///< operation on a null / torn-down communicator
  deadlock,          ///< watchdog: every live rank blocked, nothing in flight
  internal,          ///< runtime invariant violated (a bug in minimpi)
};

/// Exception thrown for all minimpi failures.
class Error : public std::runtime_error {
 public:
  Error(ErrorClass cls, const std::string& what)
      : std::runtime_error(what), cls_(cls) {}

  [[nodiscard]] ErrorClass error_class() const noexcept { return cls_; }

 private:
  ErrorClass cls_;
};

/// Throws mpi::Error with the given class if `cond` is false. A literal
/// message builds no std::string unless the check fails.
inline void require(bool cond, ErrorClass cls, std::string_view what) {
  if (!cond) throw Error(cls, std::string(what));
}

}  // namespace mpi
