/**
 * @file
 * The pure pieces of the repository benchmark (scd_perfbench.cc), kept
 * apart so selftest.cc can check them without running a plan: the seeded
 * plan order, the tail-percentile rule, the per-point reference oracle,
 * and the in-memory span recorder of the traced run.
 */

#ifndef SCD_PERFBENCH_PERFBENCH_HH
#define SCD_PERFBENCH_PERFBENCH_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "harness/runner.hh"

namespace scd::perfbench
{

// ---- seeded plan order ---------------------------------------------------

inline uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * The execution order of an @p n point plan: position j runs canonical
 * point order[j]. Seed 0 is the paper order (identity); any other seed is
 * a Fisher-Yates shuffle driven by splitmix64, so equal seeds give equal
 * orders on every host.
 */
inline std::vector<size_t>
planOrder(size_t n, uint64_t seed)
{
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t(0));
    if (seed == 0)
        return order;
    uint64_t state = seed;
    for (size_t i = n; i > 1; --i) {
        size_t j = size_t(splitmix64(state) % i);
        std::swap(order[i - 1], order[j]);
    }
    return order;
}

// ---- order statistics ------------------------------------------------------

/** Nearest-rank percentile (0 < @p pct <= 100) of unsorted @p values. */
inline double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t rank = size_t(std::ceil(pct / 100.0 * double(values.size())));
    rank = std::clamp<size_t>(rank, 1, values.size());
    return values[rank - 1];
}

inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

/** The tail a timing is reported at; see tailPercentile(). */
struct Tail
{
    double pct = 0.0;   ///< the percentile, 100 * rank / n
    double value = 0.0; ///< the sample at that rank
    size_t beyond = 0;  ///< samples strictly greater than value
};

/**
 * The highest nearest-rank percentile that still has at least
 * @p minBeyond samples strictly above it. Ties can pull the rank below
 * n - minBeyond. nullopt when the sample holds no such rank (fewer than
 * minBeyond + 1 samples, or every sample equal).
 */
inline std::optional<Tail>
tailPercentile(std::vector<double> values, size_t minBeyond = 10)
{
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    if (n <= minBeyond)
        return std::nullopt;
    for (size_t rank = n - minBeyond; rank >= 1; --rank) {
        double v = values[rank - 1];
        size_t beyond = size_t(values.end() -
                               std::upper_bound(values.begin(), values.end(),
                                                v));
        if (beyond >= minBeyond)
            return Tail{100.0 * double(rank) / double(n), v, beyond};
    }
    return std::nullopt;
}

// ---- reference oracle ------------------------------------------------------

/** FNV-1a over every "name=value;" pair of @p stats, in name order. */
inline uint64_t
counterDigest(const StatGroup &stats)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    };
    for (const auto &[name, value] : stats.all())
        mix(name + "=" + std::to_string(value) + ";");
    return h;
}

/**
 * One point's simulated outcome as stored in perfbench/ref/<workload>.tsv.
 * Every simulated counter is folded into the digest, so any change to any
 * counter of any point is caught; instructions and cycles stay readable.
 */
struct RefPoint
{
    size_t index = 0; ///< position in the canonical (seed 0) plan
    std::string label;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t counters = 0; ///< number of counters digested
    uint64_t digest = 0;

    bool
    operator==(const RefPoint &o) const
    {
        return index == o.index && label == o.label &&
               instructions == o.instructions && cycles == o.cycles &&
               counters == o.counters && digest == o.digest;
    }
};

inline RefPoint
refPointOf(size_t index, const std::string &label,
           const harness::ExperimentResult &result)
{
    RefPoint p;
    p.index = index;
    p.label = label;
    p.instructions = result.run.instructions;
    p.cycles = result.run.cycles;
    p.counters = result.stats.size();
    p.digest = counterDigest(result.stats);
    return p;
}

/** One tab-separated line, digest in hex. */
inline std::string
formatRef(const RefPoint &p)
{
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  (unsigned long long)p.digest);
    std::ostringstream out;
    out << p.index << '\t' << p.label << '\t' << p.instructions << '\t'
        << p.cycles << '\t' << p.counters << '\t' << digest;
    return out.str();
}

/**
 * Parse a reference file (formatRef lines; '#' lines are comments).
 * nullopt on any malformed line, so a damaged reference fails the run
 * instead of silently matching nothing.
 */
inline std::optional<std::vector<RefPoint>>
parseRef(const std::string &text)
{
    std::vector<RefPoint> points;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        RefPoint p;
        std::string digest;
        if (!(fields >> p.index) || fields.get() != '\t' ||
            !std::getline(fields, p.label, '\t') ||
            !(fields >> p.instructions >> p.cycles >> p.counters >>
              digest) ||
            digest.size() != 16) {
            return std::nullopt;
        }
        p.digest = std::stoull(digest, nullptr, 16);
        points.push_back(std::move(p));
    }
    return points;
}

/**
 * Compare a point's outcome to its reference entry. Returns an empty
 * string when identical, else a one-line description of what differs.
 */
inline std::string
refMismatch(const RefPoint &want, const RefPoint &got)
{
    if (want == got)
        return "";
    std::ostringstream out;
    out << "point " << want.index << " (" << want.label << "): ";
    if (want.label != got.label)
        out << "label " << got.label << "; ";
    if (want.instructions != got.instructions)
        out << "instructions " << got.instructions << " != "
            << want.instructions << "; ";
    if (want.cycles != got.cycles)
        out << "cycles " << got.cycles << " != " << want.cycles << "; ";
    if (want.counters != got.counters || want.digest != got.digest)
        out << "counter digest differs";
    return out.str();
}

// ---- spans -----------------------------------------------------------------

/**
 * In-memory span recorder for the traced run. A span is a name, a start
 * and end on the steady clock (microseconds since the recorder was made),
 * the span that caused it, and a point id shared by every span of one
 * plan point (-1 for plan-level spans). Thread-safe; written out once at
 * the end of the run.
 */
class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    struct Span
    {
        std::string name;
        double startUs = 0.0;
        double endUs = 0.0;
        long parent = -1; ///< index of the causing span, -1 for roots
        long point = -1;  ///< plan point id, -1 for plan-level spans
    };

    /** Open a span; returns its index for close() and as a parent. */
    long
    open(const std::string &name, long parent = -1, long point = -1)
    {
        double now = sinceOrigin();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(Span{name, now, now, parent, point});
        return long(spans_.size() - 1);
    }

    void
    close(long span)
    {
        double now = sinceOrigin();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[size_t(span)].endUs = now;
    }

    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

    /** Serialize as a JSON array of span objects. */
    std::string
    json() const
    {
        std::ostringstream out;
        out << "[\n";
        std::vector<Span> all = spans();
        for (size_t i = 0; i < all.size(); ++i) {
            const Span &s = all[i];
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "{\"id\": %zu, \"name\": \"%s\", \"start_us\": "
                          "%.3f, \"end_us\": %.3f, \"parent\": %ld, "
                          "\"point\": %ld}",
                          i, s.name.c_str(), s.startUs, s.endUs, s.parent,
                          s.point);
            out << "  " << buf << (i + 1 < all.size() ? ",\n" : "\n");
        }
        out << "]\n";
        return out.str();
    }

  private:
    double
    sinceOrigin() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    const Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_; ///< guards spans_
    std::vector<Span> spans_;
};

/**
 * RAII span: opens on construction, closes on destruction. A null tracer
 * records nothing, so untraced runs pay one branch per call.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const std::string &name, long parent = -1,
               long point = -1)
        : tracer_(tracer),
          id_(tracer ? tracer->open(name, parent, point) : -1)
    {
    }

    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->close(id_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    long id() const { return id_; }

  private:
    Tracer *tracer_;
    long id_;
};

} // namespace scd::perfbench

#endif // SCD_PERFBENCH_PERFBENCH_HH
