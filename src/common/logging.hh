/**
 * @file
 * Error-reporting helpers in the spirit of gem5's base/logging.hh.
 *
 * panic()  — an internal invariant was violated (a simulator bug);
 *            aborts so a debugger/core dump can catch it.
 * fatal()  — the user asked for something impossible (bad configuration,
 *            malformed input script, ...); exits with status 1.
 * warn()   — something suspicious but survivable happened.
 */

#ifndef SCD_COMMON_LOGGING_HH
#define SCD_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace scd
{

namespace detail
{

/** Fold a list of stream-printable arguments into one string. */
template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/** Thrown by fatal() so tests can observe user-level errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what) : std::runtime_error(what) {}
};

/**
 * Thrown when a per-point wall-clock deadline expires (see
 * cpu::Watchdog). A subclass of FatalError so generic containment
 * still catches it, while callers that care can classify the point as
 * timed-out rather than failed.
 */
class TimeoutError : public FatalError
{
  public:
    explicit TimeoutError(const std::string &what) : FatalError(what) {}
};

/** Report an internal simulator bug and abort. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    std::string msg = detail::formatMessage(std::forward<Args>(args)...);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

/** Report an unrecoverable user-level error. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(detail::formatMessage(std::forward<Args>(args)...));
}

/**
 * Report a survivable anomaly. The whole line is formatted up front and
 * emitted with one fwrite so concurrent warnings from parallel runPlan
 * workers cannot interleave mid-line.
 */
template <typename... Args>
void
warn(Args &&...args)
{
    std::string line =
        "warn: " + detail::formatMessage(std::forward<Args>(args)...) + "\n";
    std::fwrite(line.data(), 1, line.size(), stderr);
}

/** panic() unless the given condition holds. */
#define SCD_ASSERT(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::scd::panic("assertion '", #cond, "' failed at ", __FILE__,    \
                         ":", __LINE__, ": ", ##__VA_ARGS__);               \
        }                                                                   \
    } while (0)

} // namespace scd

#endif // SCD_COMMON_LOGGING_HH
