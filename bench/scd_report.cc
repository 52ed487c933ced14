/**
 * @file
 * The run-diff regression gate CLI. Compares two stats documents written
 * by the bench binaries' --json=<path> export (schema scd-stats-v1),
 * prints the shape report — who wins, in which direction, by which
 * factor — plus every metric that moved past the tolerance, and exits
 * non-zero on regression so CI can gate on it.
 *
 * Usage:
 *   scd_report <baseline.json> <current.json> [--tolerance=X] [--brief]
 *   scd_report --shape <run.json>
 *
 * Exit codes: 0 = within tolerance, 1 = regressed, 2 = usage/input error.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/report.hh"

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: scd_report <baseline.json> <current.json>\n"
        "                  [--tolerance=X] [--brief]\n"
        "       scd_report --shape <run.json>\n"
        "\n"
        "Diffs two scd-stats-v1 documents (bench --json=<path> output)\n"
        "and exits 1 when a headline metric moved more than the\n"
        "tolerance (default 0.02 relative). --shape prints the win/\n"
        "direction/factor summary of a single document instead.\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace scd;

    obs::ReportOptions options;
    bool shapeOnly = false;
    std::vector<std::string> files;
    for (int n = 1; n < argc; ++n) {
        if (std::strncmp(argv[n], "--tolerance=", 12) == 0) {
            char *end = nullptr;
            double v = std::strtod(argv[n] + 12, &end);
            if (!end || *end != '\0' || !std::isfinite(v) || v < 0) {
                std::fprintf(stderr, "bad --tolerance value '%s'\n",
                             argv[n] + 12);
                return 2;
            }
            options.tolerance = v;
        } else if (std::strcmp(argv[n], "--brief") == 0) {
            options.verbose = false;
        } else if (std::strcmp(argv[n], "--shape") == 0) {
            shapeOnly = true;
        } else if (argv[n][0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", argv[n]);
            return usage();
        } else {
            files.push_back(argv[n]);
        }
    }

    if (shapeOnly) {
        if (files.size() != 1)
            return usage();
        obs::JsonValue run;
        std::string error;
        if (!obs::loadStatsFile(files[0], run, &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 2;
        }
        std::printf("%s", obs::shapeSummary(run).c_str());
        return 0;
    }

    if (files.size() != 2)
        return usage();
    obs::JsonValue baseline, current;
    std::string error;
    if (!obs::loadStatsFile(files[0], baseline, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }
    if (!obs::loadStatsFile(files[1], current, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }

    obs::ReportResult result =
        obs::compareRuns(baseline, current, options);
    std::printf("%s", result.text.c_str());
    return result.regressed() ? 1 : 0;
}
