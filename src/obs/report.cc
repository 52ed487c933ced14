#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/table.hh"
#include "stats_sink.hh"

namespace scd::obs
{

namespace
{

std::string
pct(double ratio)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.1f%%", 100.0 * (ratio - 1.0));
    return buf;
}

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return buf;
}

double
relativeDelta(double base, double cur)
{
    if (base == 0.0)
        return cur == 0.0 ? 0.0 : HUGE_VAL;
    return std::fabs(cur - base) / std::fabs(base);
}

/** A set's label, tolerating hand-written documents without one. */
std::string
setLabel(const JsonValue &set, size_t index)
{
    std::string label = set.stringOr("label", "");
    return label.empty() ? "set#" + std::to_string(index) : label;
}

const JsonValue &
findSet(const JsonValue &run, const std::string &label)
{
    static const JsonValue missing;
    const JsonValue &sets = run.at("sets");
    for (size_t i = 0; i < sets.size(); ++i) {
        if (setLabel(sets.at(i), i) == label)
            return sets.at(i);
    }
    return missing;
}

/** Winner of one vm's derived block: the scheme with the top geomean. */
std::pair<std::string, double>
winnerOf(const JsonValue &vmDerived)
{
    std::string best;
    double bestSpeedup = -1.0;
    for (const auto &[scheme, d] : vmDerived.members()) {
        double s = d.numberOr("geomeanSpeedup", -1.0);
        if (s > bestSpeedup) {
            bestSpeedup = s;
            best = scheme;
        }
    }
    return {best, bestSpeedup};
}

/** "scd (+21.0%) > vbbi (+5.4%) > jump-threading (+4.6%)". */
std::string
orderingOf(const JsonValue &vmDerived)
{
    std::vector<std::pair<std::string, double>> schemes;
    for (const auto &[scheme, d] : vmDerived.members()) {
        double s = d.numberOr("geomeanSpeedup", -1.0);
        if (s > 0)
            schemes.emplace_back(scheme, s);
    }
    std::sort(schemes.begin(), schemes.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    std::string out;
    for (const auto &[scheme, s] : schemes) {
        if (!out.empty())
            out += " > ";
        out += scheme + " (" + pct(s) + ")";
    }
    return out;
}

} // namespace

std::string
shapeSummary(const JsonValue &run)
{
    std::string out;
    const JsonValue &sets = run.at("sets");
    for (size_t i = 0; i < sets.size(); ++i) {
        const JsonValue &set = sets.at(i);
        const JsonValue &derived = set.at("derived");
        if (!derived.isObject() || derived.size() == 0)
            continue;
        out += "  [" + setLabel(set, i) + "]\n";
        for (const auto &[vm, vmDerived] : derived.members()) {
            auto [winner, speedup] = winnerOf(vmDerived);
            out += "    " + vm + ": winner " + winner + " at " +
                   pct(speedup) + " over baseline";
            out += speedup >= 1.0 ? " (speedup)" : " (SLOWDOWN)";
            out += "\n      order: " + orderingOf(vmDerived) + "\n";
        }
    }
    if (out.empty())
        out = "  (no derived metrics: no baseline-scheme points)\n";
    return out;
}

ReportResult
compareRuns(const JsonValue &baseline, const JsonValue &current,
            const ReportOptions &options)
{
    ReportResult result;
    std::string &text = result.text;
    auto failf = [&](std::string message) {
        result.failures.push_back(std::move(message));
    };

    // A NaN tolerance would make every "delta > tolerance" test false.
    if (!std::isfinite(options.tolerance) || options.tolerance < 0) {
        failf("tolerance " + fmt(options.tolerance) +
              " is not a finite non-negative number");
        text = "bad tolerance — cannot compare\n";
        return result;
    }

    // ---- schema -----------------------------------------------------------
    if (baseline.stringOr("schema", "") != kStatsSchema)
        failf("baseline document is not " + std::string(kStatsSchema));
    if (current.stringOr("schema", "") != kStatsSchema)
        failf("current document is not " + std::string(kStatsSchema));
    if (!result.failures.empty()) {
        text = "schema mismatch — cannot compare\n";
        return result;
    }

    text += "scd_report: " + baseline.stringOr("bench", "?") + " [" +
            baseline.at("meta").stringOr("gitRev", "?") + "] vs [" +
            current.at("meta").stringOr("gitRev", "?") + "], size " +
            current.stringOr("size", "?") + ", tolerance " +
            fmt(options.tolerance) + "\n\n";
    if (baseline.stringOr("bench", "") != current.stringOr("bench", "")) {
        failf("bench mismatch: baseline " +
              baseline.stringOr("bench", "?") + " vs current " +
              current.stringOr("bench", "?"));
    }

    text += "Current shape:\n" + shapeSummary(current) + "\n";

    // ---- scalar headline metrics -----------------------------------------
    TextTable deltas;
    deltas.header({"metric", "baseline", "current", "delta", "verdict"});
    size_t tableRows = 0;
    auto check = [&](const std::string &name, double base, double cur) {
        double delta = relativeDelta(base, cur);
        bool bad = delta > options.tolerance;
        char deltaText[32];
        std::snprintf(deltaText, sizeof(deltaText), "%+.2f%%",
                      100.0 * (base == 0.0 ? 0.0 : (cur - base) / base));
        deltas.row({name, fmt(base), fmt(cur), deltaText,
                    bad ? "FAIL" : "ok"});
        ++tableRows;
        if (bad) {
            failf(name + " moved " + std::string(deltaText) +
                  " (baseline " + fmt(base) + ", current " + fmt(cur) +
                  ", tolerance " + fmt(options.tolerance) + ")");
        }
    };

    const JsonValue &baseMetrics = baseline.at("metrics");
    for (const auto &[name, value] : baseMetrics.members()) {
        const JsonValue &cur = current.at("metrics").at(name);
        if (!cur.isNumber()) {
            failf("metric " + name + " missing from the current run");
            continue;
        }
        check("metrics." + name, value.asDouble(), cur.asDouble());
    }

    // ---- per-set derived metrics -----------------------------------------
    const JsonValue &baseSets = baseline.at("sets");
    for (size_t i = 0; i < baseSets.size(); ++i) {
        const JsonValue &baseSet = baseSets.at(i);
        std::string label = setLabel(baseSet, i);
        const JsonValue &curSet = findSet(current, label);
        if (!curSet.isObject()) {
            failf("set '" + label + "' missing from the current run");
            continue;
        }
        const JsonValue &baseDerived = baseSet.at("derived");
        const JsonValue &curDerived = curSet.at("derived");
        for (const auto &[vm, baseVm] : baseDerived.members()) {
            const JsonValue &curVm = curDerived.at(vm);
            if (!curVm.isObject()) {
                failf(label + "/" + vm +
                      ": derived metrics missing from the current run");
                continue;
            }

            // Shape: the winning scheme must not change.
            auto [baseWinner, baseBest] = winnerOf(baseVm);
            auto [curWinner, curBest] = winnerOf(curVm);
            (void)baseBest;
            (void)curBest;
            if (!baseWinner.empty() && baseWinner != curWinner) {
                failf(label + "/" + vm + ": winner changed from " +
                      baseWinner + " to " + curWinner);
            }

            for (const auto &[scheme, baseSch] : baseVm.members()) {
                const JsonValue &curSch = curVm.at(scheme);
                std::string prefix = label + "/" + vm + "/" + scheme;
                if (!curSch.isObject()) {
                    failf(prefix + " missing from the current run");
                    continue;
                }
                double baseGeo = baseSch.numberOr("geomeanSpeedup", 0.0);
                double curGeo = curSch.numberOr("geomeanSpeedup", 0.0);
                if (baseGeo > 0.0 && curGeo > 0.0) {
                    check(prefix + ".geomeanSpeedup", baseGeo, curGeo);
                    // Shape: direction must not flip.
                    if ((baseGeo >= 1.0) != (curGeo >= 1.0)) {
                        failf(prefix + ": direction flipped (" +
                              pct(baseGeo) + " -> " + pct(curGeo) + ")");
                    }
                }
                for (const char *ratioKey : {"speedup", "instRatio"}) {
                    const JsonValue &baseMap = baseSch.at(ratioKey);
                    for (const auto &[workload, value] :
                         baseMap.members()) {
                        const JsonValue &cur =
                            curSch.at(ratioKey).at(workload);
                        if (!cur.isNumber()) {
                            failf(prefix + "." + ratioKey + "." +
                                  workload +
                                  " missing from the current run");
                            continue;
                        }
                        double delta = relativeDelta(value.asDouble(),
                                                     cur.asDouble());
                        if (delta > options.tolerance) {
                            check(prefix + "." + ratioKey + "." +
                                      workload,
                                  value.asDouble(), cur.asDouble());
                        }
                    }
                }
            }
        }

        // ---- per-point raw counts (informational) -----------------------
        if (!options.verbose)
            continue;
        const JsonValue &basePoints = baseSet.at("points");
        const JsonValue &curPoints = curSet.at("points");
        for (size_t p = 0; p < basePoints.size(); ++p) {
            const JsonValue &bp = basePoints.at(p);
            std::string key = bp.stringOr("vm", "?") + "/" +
                              bp.stringOr("workload", "?") + "/" +
                              bp.stringOr("scheme", "?");
            const JsonValue *cp = nullptr;
            for (size_t q = 0; q < curPoints.size(); ++q) {
                const JsonValue &cand = curPoints.at(q);
                if (cand.stringOr("vm", "") == bp.stringOr("vm", "") &&
                    cand.stringOr("workload", "") ==
                        bp.stringOr("workload", "") &&
                    cand.stringOr("scheme", "") ==
                        bp.stringOr("scheme", "")) {
                    cp = &cand;
                    break;
                }
            }
            if (!cp) {
                failf(label + ": point " + key +
                      " missing from the current run");
                continue;
            }
            for (const char *field : {"instructions", "cycles"}) {
                double base = bp.numberOr(field, 0.0);
                double cur = cp->numberOr(field, 0.0);
                if (relativeDelta(base, cur) > options.tolerance) {
                    text += "  note: " + label + "/" + key + " " + field +
                            " moved " + fmt(base) + " -> " + fmt(cur) +
                            "\n";
                }
            }
        }
    }

    if (tableRows > 0)
        text += "Headline metrics:\n" + deltas.render();

    text += "\n";
    if (result.failures.empty()) {
        text += "PASS: no headline metric moved more than " +
                fmt(options.tolerance) + "\n";
    } else {
        text += "FAIL: " + std::to_string(result.failures.size()) +
                " regression(s):\n";
        for (const std::string &f : result.failures)
            text += "  - " + f + "\n";
    }
    return result;
}

bool
loadStatsFile(const std::string &path, JsonValue &out, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot open " + path;
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string parseError;
    out = JsonValue::parse(text.str(), &parseError);
    if (!parseError.empty()) {
        if (error)
            *error = path + ": " + parseError;
        return false;
    }
    return true;
}

} // namespace scd::obs
