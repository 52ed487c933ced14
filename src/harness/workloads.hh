/**
 * @file
 * The 11 benchmark scripts of Table III, written in the shared script
 * language so each runs on both VMs (RLua and SJS). Input sizes come in
 * three flavours: "test" (fast, for unit tests), "sim" (the cycle-level
 * simulation campaign, Figures 2-11), and "fpga" (the larger Table IV
 * campaign).
 *
 * Substitutions vs. the Computer Language Benchmarks Game originals are
 * documented per workload (e.g. pidigits uses a bounded-precision spigot;
 * k-nucleotide synthesizes its sequence instead of reading FASTA).
 */

#ifndef SCD_HARNESS_WORKLOADS_HH
#define SCD_HARNESS_WORKLOADS_HH

#include <string>
#include <vector>

namespace scd::harness
{

/** Input scale selector. */
enum class InputSize
{
    Test,
    Sim,
    Fpga,
};

/** One benchmark script. */
struct Workload
{
    std::string name;
    std::string description;
    std::string source;  ///< script text with an @N@ input placeholder
    long testInput;
    long simInput;
    long fpgaInput;

    /** Script text with the input substituted. */
    std::string text(InputSize size) const;
    long input(InputSize size) const;
};

/** Canonical lowercase name of a size ("test", "sim", "fpga"). */
const char *inputSizeName(InputSize size);

/**
 * Parse a size name back into the enum; returns false (leaving @p size
 * untouched) for anything else. The inverse of inputSizeName(), used
 * by the bench --size flag.
 */
bool parseInputSize(const std::string &name, InputSize &size);

/** All 11 workloads, in the paper's order. */
const std::vector<Workload> &workloads();

/** Look up one workload by name; fatal() if unknown. */
const Workload &workload(const std::string &name);

} // namespace scd::harness

#endif // SCD_HARNESS_WORKLOADS_HH
