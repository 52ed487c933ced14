/**
 * @file
 * Low-overhead pipeline event tracing. A TraceBuffer is a fixed-capacity
 * ring of cycle-stamped events (retire, stall, mispredict, JTE traffic)
 * plus dense whole-run aggregates: per-opcode retire/mispredict/stall
 * profiles and per-dispatch-site execution counts. The ring holds the
 * most recent window for the Chrome trace_event exporter; the aggregates
 * cover the entire run regardless of ring wraps.
 *
 * The recording hooks are compiled into every build. InOrderTiming's
 * per-instruction hooks live in one instantiation of its retire body,
 * the one retire() runs (a core with a buffer attached takes that
 * path); the fused threaded path and consume() run bodies with no
 * trace code. The branch layer's rare events (false hits, JTE
 * evictions, FDIP prefetches) test for an attached buffer.
 */

#ifndef SCD_OBS_TRACE_HH
#define SCD_OBS_TRACE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace scd::obs
{

/** Pipeline event kinds recorded by the trace hooks. */
enum class TraceEventKind : uint8_t
{
    Retire,       ///< one instruction retired (pc, opcode)
    Mispredict,   ///< control misprediction (pc, branch class in cls)
    RopStall,     ///< bop fetch stall on an in-flight Rop (arg = cycles)
    LoadUseStall, ///< scoreboard source stall (arg = cycles)
    JteInsert,    ///< jru inserted/refreshed a JTE (arg = masked opcode)
    JteEvict,     ///< a JTE insertion displaced a live branch entry
    JteFlush,     ///< jte.flush invalidated all JTEs
    FrontendFalseHit, ///< partial-tag alias hit (pc = probe key,
                      ///< arg = resident key, cls = 1 for a JTE alias)
    FtqPrefetch,  ///< FDIP converted a BTB miss into a prefetch hit
    NumKinds
};

/** Short stable name of @p kind (used in exports). */
const char *traceEventName(TraceEventKind kind);

/** No-branch-class sentinel for events without one. */
inline constexpr uint8_t kTraceNoClass = 0xff;

/**
 * The branch-class byte identifying the interpreter dispatch jump;
 * events carrying it feed the per-dispatch-site profile. Matches
 * cpu::BranchClass::IndirectDispatch (static_assert'd at the hook site)
 * without pulling the cpu headers into obs.
 */
inline constexpr uint8_t kTraceDispatchClass = 3;

/** One recorded event. 32 bytes; the ring is a flat array of these. */
struct TraceEvent
{
    uint64_t cycle = 0;
    uint64_t pc = 0;
    uint64_t arg = 0; ///< kind-specific payload (see TraceEventKind)
    TraceEventKind kind = TraceEventKind::Retire;
    uint8_t op = 0;   ///< SRV64 opcode byte (Retire/Mispredict/stalls)
    uint8_t cls = kTraceNoClass; ///< cpu::BranchClass of control events
};

/** Ring buffer plus whole-run aggregates; see the file comment. */
class TraceBuffer
{
  public:
    /** Whole-run per-opcode aggregate. */
    struct OpProfile
    {
        uint64_t retired = 0;
        uint64_t mispredicts = 0;
        uint64_t stallCycles = 0;
    };

    /** Whole-run per-dispatch-site aggregate (keyed by jump pc). */
    struct SiteProfile
    {
        uint64_t executed = 0;
        uint64_t mispredicted = 0;
    };

    explicit TraceBuffer(size_t capacity = 1u << 16);

    /**
     * Stamp the cycle applied to subsequent record() calls. The timing
     * model sets it once per retired instruction; components without a
     * cycle count of their own (the BTB) inherit it.
     */
    void setCycle(uint64_t cycle) { cycle_ = cycle; }
    uint64_t cycle() const { return cycle_; }

    /** Record one event at the current cycle stamp. */
    void
    record(TraceEventKind kind, uint64_t pc, uint64_t arg = 0,
           uint8_t op = 0, uint8_t cls = kTraceNoClass)
    {
        TraceEvent &e = ring_[head_];
        e.cycle = cycle_;
        e.pc = pc;
        e.arg = arg;
        e.kind = kind;
        e.op = op;
        e.cls = cls;
        if (++head_ == ring_.size())
            head_ = 0;
        ++recorded_;
        aggregate(kind, pc, arg, op, cls);
    }

    /** Events currently retained, oldest first. */
    std::vector<TraceEvent> events() const;

    /** Total record() calls (>= events().size() once wrapped). */
    uint64_t recorded() const { return recorded_; }

    /** Events pushed out of the ring by later ones. */
    uint64_t
    dropped() const
    {
        return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
    }

    size_t capacity() const { return ring_.size(); }

    const std::array<OpProfile, 256> &opProfiles() const { return ops_; }

    /** Dispatch sites in pc order. */
    const std::map<uint64_t, SiteProfile> &dispatchSites() const
    {
        return sites_;
    }

    /** Reset the ring, counters, and aggregates. */
    void clear();

  private:
    void aggregate(TraceEventKind kind, uint64_t pc, uint64_t arg,
                   uint8_t op, uint8_t cls);

    std::vector<TraceEvent> ring_;
    size_t head_ = 0;
    uint64_t recorded_ = 0;
    uint64_t cycle_ = 0;
    std::array<OpProfile, 256> ops_{};
    std::map<uint64_t, SiteProfile> sites_;
};

/** Maps an opcode byte to a display name (e.g. isa mnemonics). */
using OpcodeNamer = std::function<std::string(uint8_t)>;

/**
 * Export the retained event window in Chrome trace_event JSON (load in
 * chrome://tracing or https://ui.perfetto.dev). Cycles map to the "ts"
 * microsecond field 1:1. @p namer labels retire slices; pass {} for
 * numeric opcode labels.
 */
std::string chromeTraceJson(const TraceBuffer &trace,
                            const OpcodeNamer &namer = {});

/**
 * Render the whole-run profile: per-opcode retire counts, mispredicts,
 * and stall cycles, plus the per-dispatch-site table. @p namer as above.
 */
std::string profileReport(const TraceBuffer &trace,
                          const OpcodeNamer &namer = {});

} // namespace scd::obs

#endif // SCD_OBS_TRACE_HH
