/**
 * @file
 * Configuration of the simulated in-order embedded core.
 *
 * The timing model is an in-order issue model with a register scoreboard:
 * each instruction issues at the earliest cycle all of its sources are
 * ready, results become ready after a per-class latency, control-flow
 * redirections and cache misses insert front-end bubbles. This captures the
 * effects the paper's evaluation depends on — dynamic instruction count,
 * branch misprediction penalty, load-use and I-cache stalls — for both the
 * 4-stage MinorCPU-like and the 5-stage Rocket-like configurations of
 * Table II.
 */

#ifndef SCD_CPU_CONFIG_HH
#define SCD_CPU_CONFIG_HH

#include <string>

#include "branch/btb.hh"
#include "branch/frontend.hh"
#include "cache/cache.hh"

namespace scd::cpu
{

/** Which conditional direction predictor the frontend uses. */
enum class PredictorKind
{
    Tournament, ///< local+global+chooser (minor / Cortex-A5-like)
    Gshare,     ///< small gshare (rocket-like)
};

/** How a bop whose Rop producer is still in flight behaves (paper §III-B). */
enum class BopStallPolicy
{
    Stall,       ///< stall fetch until Rop is available (paper default)
    FallThrough, ///< proceed down the slow path, no fast dispatch
};

/** Full microarchitectural configuration. */
struct CoreConfig
{
    std::string name = "minor";

    // Pipeline shape.
    unsigned issueWidth = 1;
    unsigned mispredictPenalty = 3;   ///< execute-stage redirect bubbles
    unsigned btbMissTakenPenalty = 2; ///< decode-redirect for direct taken
    unsigned ropForwardDistance = 3;  ///< .op-load -> bop distance w/o stall

    // Execution latencies (cycles until the result is usable).
    unsigned aluLatency = 1;
    unsigned mulLatency = 3;
    unsigned divLatency = 12;
    unsigned fpLatency = 3;
    unsigned fpDivLatency = 15;
    unsigned loadHitLatency = 2;      ///< D-cache hit (L1 load-to-use)

    // Memory system.
    cache::CacheConfig icache{"icache", 16 * 1024, 2, 64,
                              cache::Replacement::LRU};
    cache::CacheConfig dcache{"dcache", 32 * 1024, 4, 64,
                              cache::Replacement::LRU};
    bool hasL2 = false;
    cache::CacheConfig l2cache{"l2cache", 256 * 1024, 8, 64,
                               cache::Replacement::LRU};
    unsigned l2HitLatency = 8;
    unsigned memLatency = 30;         ///< last-level miss penalty
    unsigned itlbEntries = 10;
    unsigned dtlbEntries = 10;
    unsigned tlbMissPenalty = 20;

    // Branch prediction.
    branch::BtbConfig btb{256, 2, /*lru=*/false, /*cap=*/0};
    /**
     * Frontend organization the timed models fetch through (see
     * branch/frontend.hh). The default IdealBtb wraps @ref btb with
     * bit-identical behaviour.
     */
    branch::FrontendConfig frontend;
    PredictorKind predictor = PredictorKind::Tournament;
    unsigned globalPredictorEntries = 512;
    unsigned localPredictorEntries = 128;
    unsigned gshareEntries = 128;
    unsigned rasDepth = 8;

    // Short-Circuit Dispatch extension.
    bool scdEnabled = false;
    BopStallPolicy bopPolicy = BopStallPolicy::Stall;
    /**
     * Store JTEs in a dedicated auxiliary table (Case-Block-Table style,
     * Kaeli & Emma) instead of overlaying them on the BTB. Ablation of
     * the paper's key cost-saving design decision.
     */
    bool scdDedicatedTable = false;
    unsigned dedicatedJteEntries = 64;

    // VBBI comparison predictor.
    bool vbbiEnabled = false;

    // ITTAGE indirect-target predictor (related-work extension); applies
    // to all non-return indirect jumps when enabled.
    bool ittageEnabled = false;
};

} // namespace scd::cpu

#endif // SCD_CPU_CONFIG_HH
