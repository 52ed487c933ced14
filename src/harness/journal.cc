#include "journal.hh"

#include <cerrno>
#include <cstring>

#include "common/logging.hh"
#include "obs/json.hh"
#include "replay.hh"

namespace scd::harness
{

namespace
{

PointStatus
statusFromName(const std::string &name)
{
    if (name == "degraded")
        return PointStatus::Degraded;
    if (name == "failed")
        return PointStatus::Failed;
    if (name == "timed_out")
        return PointStatus::TimedOut;
    return PointStatus::Ok;
}

} // namespace

RunJournal::~RunJournal()
{
    if (file_)
        std::fclose(file_);
}

void
RunJournal::open(const std::string &path, bool truncate)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_)
        std::fclose(file_);
    file_ = std::fopen(path.c_str(), truncate ? "w" : "a");
    if (!file_) {
        fatal("cannot open journal ", path, ": ", std::strerror(errno));
    }
}

void
RunJournal::append(const std::string &key, const ExperimentRun &run)
{
    if (!file_ || !run.usable())
        return;
    std::string line = journalLine(key, run);
    line += '\n';
    std::lock_guard<std::mutex> lock(mutex_);
    std::fwrite(line.data(), 1, line.size(), file_);
    // One flush per point: the line reaches the OS before the next
    // point starts, so kill -9 loses only in-flight work.
    std::fflush(file_);
}

std::string
journalLine(const std::string &key, const ExperimentRun &run)
{
    using obs::JsonWriter;
    const ExperimentResult &r = run.result;
    std::string line = "{\"schema\":";
    line += JsonWriter::quote(kJournalSchema);
    line += ",\"key\":";
    line += JsonWriter::quote(key);
    line += ",\"status\":";
    line += JsonWriter::quote(pointStatusName(run.status));
    if (!run.error.empty()) {
        line += ",\"error\":";
        line += JsonWriter::quote(run.error);
    }
    line += ",\"exitCode\":";
    line += std::to_string(r.run.exitCode);
    line += ",\"exited\":";
    line += r.run.exited ? "true" : "false";
    line += ",\"instructions\":";
    line += std::to_string(r.run.instructions);
    line += ",\"cycles\":";
    line += std::to_string(r.run.cycles);
    line += ",\"textBytes\":";
    line += std::to_string(r.interpreterTextBytes);
    line += ",\"simSeconds\":";
    line += JsonWriter::number(r.simSeconds);
    line += ",\"seconds\":";
    line += JsonWriter::number(run.seconds);
    line += ",\"output\":";
    line += JsonWriter::quote(r.output);
    line += ",\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : r.stats.all()) {
        if (!first)
            line += ',';
        first = false;
        line += JsonWriter::quote(name);
        line += ':';
        line += std::to_string(value);
    }
    line += "}}";
    return line;
}

bool
parseJournalLine(const std::string &line, std::string &key,
                 ExperimentRun &run)
{
    using Kind = obs::JsonValue::Kind;
    obs::JsonValue doc = obs::JsonValue::parse(line);
    if (!doc.isObject() || doc.stringOr("schema", "") != kJournalSchema ||
        !doc.at("key").isString()) {
        return false;
    }
    // Every field a restored point's results come from must be present
    // with its written type; a missing one would otherwise read back as
    // zero and restore a silently wrong point instead of re-running it.
    if (doc.at("exited").kind() != Kind::Bool ||
        !doc.at("instructions").isNumber() || !doc.at("cycles").isNumber() ||
        !doc.at("textBytes").isNumber() || !doc.at("counters").isObject()) {
        return false;
    }
    for (const auto &member : doc.at("counters").members()) {
        if (!member.second.isNumber())
            return false;
    }

    ExperimentRun parsed;
    parsed.status = statusFromName(doc.stringOr("status", "ok"));
    parsed.error = doc.stringOr("error", "");
    parsed.seconds = doc.numberOr("seconds", 0.0);
    ExperimentResult &r = parsed.result;
    r.run.exitCode = int(doc.numberOr("exitCode", 0));
    r.run.exited = doc.at("exited").asBool();
    r.run.instructions = doc.at("instructions").asUint();
    r.run.cycles = doc.at("cycles").asUint();
    r.interpreterTextBytes = doc.at("textBytes").asUint();
    r.simSeconds = doc.numberOr("simSeconds", 0.0);
    r.output = doc.stringOr("output", "");
    for (const auto &[name, value] : doc.at("counters").members())
        r.stats.counter(name) = value.asUint();
    key = doc.at("key").asString();
    run = std::move(parsed);
    return true;
}

std::map<std::string, ExperimentRun>
loadJournal(const std::string &path)
{
    std::map<std::string, ExperimentRun> restored;
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return restored;

    std::string text;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);

    size_t lineNo = 0;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t end = text.find('\n', pos);
        bool truncated = end == std::string::npos;
        std::string line =
            text.substr(pos, truncated ? std::string::npos : end - pos);
        pos = truncated ? text.size() : end + 1;
        ++lineNo;
        if (line.empty())
            continue;

        std::string key;
        ExperimentRun run;
        if (!parseJournalLine(line, key, run)) {
            // The crash window: a partially-written final line. Anything
            // malformed mid-file is reported too — the points are simply
            // re-run.
            warn("journal ", path, " line ", lineNo,
                 truncated ? ": truncated record ignored"
                           : ": malformed record ignored");
            continue;
        }
        restored[key] = std::move(run);
    }
    return restored;
}

size_t
restoreJournaledPoints(ExperimentSet &set, const std::string &path,
                       std::vector<size_t> &pending)
{
    std::map<std::string, ExperimentRun> restored = loadJournal(path);
    size_t count = 0;
    for (size_t i = 0; i < set.points.size(); ++i) {
        auto it = restored.find(pointKey(set.points[i]));
        if (it != restored.end()) {
            set.runs[i] = it->second;
            ++count;
        } else {
            pending.push_back(i);
        }
    }
    return count;
}

} // namespace scd::harness
