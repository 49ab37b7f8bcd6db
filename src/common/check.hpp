// Lightweight contract checking for the ADCC library.
//
// ADCC_CHECK is always on (it guards algorithm invariants whose violation would
// silently corrupt recovery decisions); ADCC_DCHECK compiles out in NDEBUG
// builds and is meant for hot simulator paths.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace adcc {

/// Thrown when a library-level contract is violated.
class ContractViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

[[noreturn]] void contract_failure(const char* expr, const char* msg,
                                   std::source_location loc = std::source_location::current());

}  // namespace adcc

#define ADCC_CHECK(expr, msg)                      \
  do {                                             \
    if (!(expr)) [[unlikely]] {                    \
      ::adcc::contract_failure(#expr, (msg));      \
    }                                              \
  } while (0)

/// Ends a function after a switch that returns for every enumerator. Throws
/// ContractViolation like ADCC_CHECK(false, msg), but as a bare [[noreturn]]
/// call, so -Wreturn-type holds in instrumented (sanitizer, -O0) builds too.
#define ADCC_UNREACHABLE(msg) ::adcc::contract_failure("unreachable", (msg))

#ifdef NDEBUG
#define ADCC_DCHECK(expr, msg) ((void)0)
#else
#define ADCC_DCHECK(expr, msg) ADCC_CHECK(expr, msg)
#endif
