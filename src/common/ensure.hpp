// Precondition / invariant checking helpers.
//
// Following the C++ Core Guidelines (I.6, E.12), we express preconditions
// explicitly and fail loudly.  Violations throw, so callers can test error
// paths; they are never compiled out because the library is used in
// verification contexts (miners re-checking each other's allocations) where
// silent corruption would be worse than the branch cost.
//
// The macros test the condition first and build the message only on
// failure: a passing check is one branch, with no std::string and no heap
// allocation, even when its message is computed (`"id " + to_string(id)`).
// The hashing paths rely on that to stay allocation-free
// (tests/common/alloc_free_test.cpp).
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace decloud {

/// Thrown when a documented precondition of a public API is violated.
class precondition_error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when an internal invariant fails (a bug in this library).
class invariant_error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

[[noreturn]] inline void throw_precondition(const char* expr, const std::string& msg,
                                            const std::source_location& loc) {
  throw precondition_error(std::string(loc.file_name()) + ":" + std::to_string(loc.line()) +
                           ": precondition failed: " + expr + (msg.empty() ? "" : " — " + msg));
}

[[noreturn]] inline void throw_invariant(const char* expr, const std::string& msg,
                                         const std::source_location& loc) {
  throw invariant_error(std::string(loc.file_name()) + ":" + std::to_string(loc.line()) +
                        ": invariant failed: " + expr + (msg.empty() ? "" : " — " + msg));
}

}  // namespace detail

/// Checks a caller-facing precondition; throws precondition_error on failure.
inline void expects(bool cond, const char* expr, const std::string& msg = {},
                    const std::source_location& loc = std::source_location::current()) {
  if (!cond) detail::throw_precondition(expr, msg, loc);
}

/// Checks an internal invariant; throws invariant_error on failure.
inline void ensures(bool cond, const char* expr, const std::string& msg = {},
                    const std::source_location& loc = std::source_location::current()) {
  if (!cond) detail::throw_invariant(expr, msg, loc);
}

}  // namespace decloud

// `cond` is evaluated once; `msg` only when `cond` is false.  The
// expression is stringified here, unexpanded, and
// std::source_location::current() names the macro's call site, as the
// default argument of expects()/ensures() does for direct callers.
#define DECLOUD_DETAIL_CHECK(cond, expr, msg, thrower)              \
  do {                                                              \
    if (!(cond)) thrower(expr, (msg), std::source_location::current()); \
  } while (false)
#define DECLOUD_EXPECTS(cond) \
  DECLOUD_DETAIL_CHECK(cond, #cond, "", ::decloud::detail::throw_precondition)
#define DECLOUD_EXPECTS_MSG(cond, msg) \
  DECLOUD_DETAIL_CHECK(cond, #cond, msg, ::decloud::detail::throw_precondition)
#define DECLOUD_ENSURES(cond) \
  DECLOUD_DETAIL_CHECK(cond, #cond, "", ::decloud::detail::throw_invariant)
#define DECLOUD_ENSURES_MSG(cond, msg) \
  DECLOUD_DETAIL_CHECK(cond, #cond, msg, ::decloud::detail::throw_invariant)
