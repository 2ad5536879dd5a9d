/**
 * @file
 * Status-message and error-reporting helpers.
 *
 * Follows the gem5 convention: panic() for internal invariant
 * violations (library bugs), fatal() for unrecoverable user errors,
 * warn() for non-fatal status messages.
 */

#ifndef TRUST_CORE_LOGGING_HH
#define TRUST_CORE_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace trust::core {

namespace detail {
[[noreturn]] void die(const char *kind, const char *file, int line,
                      const std::string &msg);
} // namespace detail

/** Something may be modeled imprecisely; execution continues. */
void warn(const std::string &msg);

/**
 * Abort due to an internal invariant violation (a library bug).
 * Mirrors gem5 panic(): never the user's fault.
 */
#define TRUST_PANIC(msg) \
    ::trust::core::detail::die("panic", __FILE__, __LINE__, (msg))

/**
 * Exit due to an unrecoverable condition caused by the caller
 * (bad configuration, invalid arguments). Mirrors gem5 fatal().
 */
#define TRUST_FATAL(msg) \
    ::trust::core::detail::die("fatal", __FILE__, __LINE__, (msg))

/** Assert an invariant; panics with the expression text on failure. */
#define TRUST_ASSERT(cond, msg)                                        \
    do {                                                               \
        if (!(cond)) {                                                 \
            ::trust::core::detail::die("assert", __FILE__, __LINE__,   \
                                       std::string(#cond) + ": " +     \
                                       (msg));                         \
        }                                                              \
    } while (false)

} // namespace trust::core

#endif // TRUST_CORE_LOGGING_HH
