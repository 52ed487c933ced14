#include "pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"

namespace scd::harness
{

void
parallelFor(unsigned jobs, size_t count,
            const std::function<void(size_t)> &fn)
{
    std::atomic<size_t> next{0};
    std::vector<std::exception_ptr> errors;
    std::mutex errorMutex;
    auto work = [&] {
        for (size_t i = next++; i < count; i = next++) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                errors.push_back(std::current_exception());
            }
        }
    };
    {
        // A jthread joins when destroyed, also if starting one throws.
        std::vector<std::jthread> helpers;
        for (size_t n = 1; n < std::min<size_t>(jobs, count); ++n)
            helpers.emplace_back(work);
        work();
    }

    if (errors.empty())
        return;
    if (errors.size() == 1)
        std::rethrow_exception(errors.front());

    constexpr size_t kMaxQuoted = 3;
    std::string msg = std::to_string(errors.size()) +
                      " parallel tasks failed; first messages:";
    for (size_t n = 0; n < errors.size() && n < kMaxQuoted; ++n) {
        msg += "\n  [" + std::to_string(n + 1) + "] ";
        try {
            std::rethrow_exception(errors[n]);
        } catch (const std::exception &e) {
            msg += e.what();
        } catch (...) {
            msg += "(non-standard exception)";
        }
    }
    if (errors.size() > kMaxQuoted)
        msg += "\n  ... and " + std::to_string(errors.size() - kMaxQuoted) +
               " more";
    throw FatalError(msg);
}

} // namespace scd::harness
