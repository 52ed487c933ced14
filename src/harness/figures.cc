#include "figures.hh"

#include <cstdio>

#include "common/logging.hh"
#include "common/table.hh"
#include "machines.hh"

namespace scd::harness
{

namespace
{

const std::vector<core::Scheme> kAllSchemes = {
    core::Scheme::Baseline, core::Scheme::JumpThreading,
    core::Scheme::Vbbi, core::Scheme::Scd};

std::string
pct(double ratio)
{
    return TextTable::percent(ratio - 1.0, 1);
}

} // namespace

const ExperimentResult &
Grid::at(VmKind vm, const std::string &workload, core::Scheme scheme) const
{
    auto it = cells_.find({vm, workload, scheme});
    if (it == cells_.end())
        fatal("grid cell missing: ", vmName(vm), "/", workload, "/",
              core::schemeName(scheme));
    return it->second;
}

double
Grid::speedup(VmKind vm, const std::string &workload,
              core::Scheme scheme) const
{
    const auto &base = at(vm, workload, core::Scheme::Baseline);
    const auto &exp = at(vm, workload, scheme);
    return double(base.run.cycles) / double(exp.run.cycles);
}

double
Grid::instRatio(VmKind vm, const std::string &workload,
                core::Scheme scheme) const
{
    const auto &base = at(vm, workload, core::Scheme::Baseline);
    const auto &exp = at(vm, workload, scheme);
    return double(exp.run.instructions) / double(base.run.instructions);
}

double
Grid::geomeanSpeedup(VmKind vm, const std::vector<std::string> &names,
                     core::Scheme scheme) const
{
    // Failed points are absent from the grid; the geomean covers the
    // workloads whose (baseline, scheme) pair completed.
    std::vector<double> values;
    for (const auto &name : names) {
        if (has(vm, name, core::Scheme::Baseline) && has(vm, name, scheme))
            values.push_back(speedup(vm, name, scheme));
    }
    return geomean(values);
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const Workload &w : workloads())
        names.push_back(w.name);
    return names;
}

Grid
gridFromSet(const ExperimentSet &set)
{
    Grid grid;
    // Cross-scheme output equality is the correctness net under every
    // experiment; checking in plan order keeps the reference stable no
    // matter which point finished first. Failed or timed-out points
    // carry no data: they are skipped here and surface as kFailedCell
    // markers in the rendered figures.
    std::map<std::pair<VmKind, std::string>, const std::string *> refs;
    for (size_t i = 0; i < set.points.size(); ++i) {
        if (!set.runs[i].usable())
            continue;
        const ExperimentPoint &p = set.points[i];
        ExperimentResult r = set.at(i);
        auto [it, fresh] = refs.try_emplace({p.vm, p.workload->name});
        if (fresh)
            it->second = &set.at(i).output;
        else if (*it->second != r.output)
            fatal("output mismatch for ", p.workload->name,
                  " under scheme ", core::schemeName(p.scheme));
        grid.put({p.vm, p.workload->name, p.scheme}, std::move(r));
    }
    return grid;
}

GridRun
runGridSet(const cpu::CoreConfig &machine, InputSize size,
           const std::vector<VmKind> &vms,
           const std::vector<core::Scheme> &schemes,
           const RunOptions &options)
{
    ExperimentPlan plan;
    plan.addGrid(machine, size, vms, schemes);
    GridRun run;
    run.set = runPlan(plan, options);
    run.grid = gridFromSet(run.set);
    return run;
}

std::string
renderFig2(const Grid &grid)
{
    std::string out =
        "Figure 2: Branch MPKI breakdown, Lua-style interpreter "
        "(baseline)\n"
        "Paper: most branch mispredictions come from the dispatch "
        "indirect jump.\n\n";
    TextTable t;
    t.header({"benchmark", "dispatch", "cond", "return", "indirectOther",
              "directJump", "total"});
    std::vector<double> dispatchShare;
    for (const auto &name : workloadNames()) {
        if (!grid.has(VmKind::Rlua, name, core::Scheme::Baseline)) {
            t.row({name, kFailedCell, kFailedCell, kFailedCell,
                   kFailedCell, kFailedCell, kFailedCell});
            continue;
        }
        const auto &r = grid.at(VmKind::Rlua, name, core::Scheme::Baseline);
        double dispatch = r.mpki("branch.indirectDispatch.mispredicted");
        double cond = r.mpki("branch.conditional.mispredicted");
        double ret = r.mpki("branch.return.mispredicted");
        double other = r.mpki("branch.indirectOther.mispredicted");
        double direct = r.mpki("branch.directJump.mispredicted");
        double total = dispatch + cond + ret + other + direct;
        if (total > 0)
            dispatchShare.push_back(dispatch / total);
        t.row({name, TextTable::fixed(dispatch, 2),
               TextTable::fixed(cond, 2), TextTable::fixed(ret, 2),
               TextTable::fixed(other, 2), TextTable::fixed(direct, 2),
               TextTable::fixed(total, 2)});
    }
    out += t.render();
    double avgShare = 0;
    for (double s : dispatchShare)
        avgShare += s;
    avgShare /= double(dispatchShare.size());
    out += "\nDispatch jump share of all mispredictions (mean): " +
           TextTable::percent(avgShare, 1) + "\n";
    return out;
}

std::string
renderFig3(const Grid &grid)
{
    std::string out =
        "Figure 3: Fraction of dispatch instructions, Lua-style "
        "interpreter\n"
        "Paper: more than 25% of all retired instructions on average.\n\n";
    TextTable t;
    t.header({"benchmark", "dispatch fraction"});
    double sum = 0;
    size_t counted = 0;
    for (const auto &name : workloadNames()) {
        if (!grid.has(VmKind::Rlua, name, core::Scheme::Baseline)) {
            t.row({name, kFailedCell});
            continue;
        }
        const auto &r = grid.at(VmKind::Rlua, name, core::Scheme::Baseline);
        double frac = r.dispatchFraction();
        sum += frac;
        ++counted;
        t.row({name, TextTable::percent(frac, 1)});
    }
    t.row({"MEAN",
           counted ? TextTable::percent(sum / double(counted), 1)
                   : std::string(kFailedCell)});
    out += t.render();
    return out;
}

namespace
{

/**
 * Shared renderer for the per-scheme figure tables. A cell whose point
 * failed — or, for @p needsBaseline renderers (ratios against the
 * baseline), whose baseline failed — prints kFailedCell instead of
 * calling @p cell.
 */
std::string
renderSchemeTable(
    const Grid &grid, const std::string &title,
    const std::string &paperNote,
    const std::function<std::string(const Grid &, VmKind,
                                    const std::string &, core::Scheme)>
        &cell,
    bool includeBaseline, bool needsBaseline)
{
    std::string out = title + "\n" + paperNote + "\n";
    for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
        out += std::string("\n[") +
               (vm == VmKind::Rlua ? "Lua-style VM (RLua)"
                                   : "JavaScript-style VM (SJS)") +
               "]\n";
        TextTable t;
        std::vector<std::string> header = {"benchmark"};
        for (core::Scheme s : kAllSchemes) {
            if (!includeBaseline && s == core::Scheme::Baseline)
                continue;
            header.push_back(core::schemeName(s));
        }
        t.header(header);
        for (const auto &name : workloadNames()) {
            std::vector<std::string> row = {name};
            for (core::Scheme s : kAllSchemes) {
                if (!includeBaseline && s == core::Scheme::Baseline)
                    continue;
                bool ok = grid.has(vm, name, s) &&
                          (!needsBaseline ||
                           grid.has(vm, name, core::Scheme::Baseline));
                row.push_back(ok ? cell(grid, vm, name, s)
                                 : std::string(kFailedCell));
            }
            t.row(row);
        }
        out += t.render();
    }
    return out;
}

} // namespace

std::string
renderFig7(const Grid &grid)
{
    std::string out = renderSchemeTable(
        grid, "Figure 7: Overall speedups over baseline",
        "Paper geomeans: Lua  JT -1.6%  VBBI +8.8%  SCD +19.9% | "
        "JS  JT +7.3%  VBBI +5.3%  SCD +14.1%",
        [](const Grid &g, VmKind vm, const std::string &name,
           core::Scheme s) { return pct(g.speedup(vm, name, s)); },
        /*includeBaseline=*/false, /*needsBaseline=*/true);
    for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
        out += std::string(vm == VmKind::Rlua ? "RLua" : "SJS ") +
               " geomean:";
        for (core::Scheme s :
             {core::Scheme::JumpThreading, core::Scheme::Vbbi,
              core::Scheme::Scd}) {
            out += std::string("  ") + core::schemeName(s) + " " +
                   pct(grid.geomeanSpeedup(vm, workloadNames(), s));
        }
        out += "\n";
    }
    return out;
}

std::string
renderFig8(const Grid &grid)
{
    return renderSchemeTable(
        grid, "Figure 8: Normalized dynamic instruction count",
        "Paper: SCD cuts instructions 10.2% (Lua) and 9.6% (JS) on "
        "average; VBBI changes nothing.",
        [](const Grid &g, VmKind vm, const std::string &name,
           core::Scheme s) {
            return TextTable::fixed(g.instRatio(vm, name, s), 3);
        },
        /*includeBaseline=*/false, /*needsBaseline=*/true);
}

std::string
renderFig9(const Grid &grid)
{
    return renderSchemeTable(
        grid, "Figure 9: Branch misprediction MPKI",
        "Paper: SCD cuts branch MPKI 70.6% (Lua) and 28.1% (JS).",
        [](const Grid &g, VmKind vm, const std::string &name,
           core::Scheme s) {
            return TextTable::fixed(g.at(vm, name, s).branchMpki(), 2);
        },
        /*includeBaseline=*/true, /*needsBaseline=*/false);
}

std::string
renderFig10(const Grid &grid)
{
    return renderSchemeTable(
        grid, "Figure 10: Instruction cache miss MPKI",
        "Paper: jump threading inflates Lua I-MPKI from 0.28 to 4.80; "
        "see also the small-I$ ablation bench.",
        [](const Grid &g, VmKind vm, const std::string &name,
           core::Scheme s) {
            return TextTable::fixed(g.at(vm, name, s).icacheMpki(), 2);
        },
        /*includeBaseline=*/true, /*needsBaseline=*/false);
}

std::string
renderTable4(const Grid &grid)
{
    std::string out =
        "Table IV: Lua interpreter on the Rocket-like core "
        "(larger inputs)\n"
        "Paper geomeans: JT saves 4.84% insts / +0.01% speed; SCD saves "
        "10.44% insts / +12.04% speed.\n\n";
    TextTable t;
    t.header({"benchmark", "base inst", "base cyc", "jt inst", "jt cyc",
              "scd inst", "scd cyc", "jt savings", "jt speedup",
              "scd savings", "scd speedup"});
    std::vector<double> jtSave, jtSpeed, scdSave, scdSpeed;
    auto fmtB = [](uint64_t v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2fM", double(v) / 1e6);
        return std::string(buf);
    };
    for (const auto &name : workloadNames()) {
        if (!grid.has(VmKind::Rlua, name, core::Scheme::Baseline) ||
            !grid.has(VmKind::Rlua, name, core::Scheme::JumpThreading) ||
            !grid.has(VmKind::Rlua, name, core::Scheme::Scd)) {
            t.row({name, kFailedCell, kFailedCell, kFailedCell,
                   kFailedCell, kFailedCell, kFailedCell, kFailedCell,
                   kFailedCell, kFailedCell, kFailedCell});
            continue;
        }
        const auto &base =
            grid.at(VmKind::Rlua, name, core::Scheme::Baseline);
        const auto &jt =
            grid.at(VmKind::Rlua, name, core::Scheme::JumpThreading);
        const auto &scd = grid.at(VmKind::Rlua, name, core::Scheme::Scd);
        double jts = 1.0 - double(jt.run.instructions) /
                               double(base.run.instructions);
        double jtx = double(base.run.cycles) / double(jt.run.cycles);
        double scds = 1.0 - double(scd.run.instructions) /
                                double(base.run.instructions);
        double scdx = double(base.run.cycles) / double(scd.run.cycles);
        jtSave.push_back(1.0 - jts);
        jtSpeed.push_back(jtx);
        scdSave.push_back(1.0 - scds);
        scdSpeed.push_back(scdx);
        t.row({name, fmtB(base.run.instructions), fmtB(base.run.cycles),
               fmtB(jt.run.instructions), fmtB(jt.run.cycles),
               fmtB(scd.run.instructions), fmtB(scd.run.cycles),
               TextTable::percent(jts, 2), pct(jtx),
               TextTable::percent(scds, 2), pct(scdx)});
    }
    t.row({"GEOMEAN", "", "", "", "", "", "",
           TextTable::percent(1.0 - geomean(jtSave), 2),
           pct(geomean(jtSpeed)),
           TextTable::percent(1.0 - geomean(scdSave), 2),
           pct(geomean(scdSpeed))});
    out += t.render();
    return out;
}

} // namespace scd::harness
