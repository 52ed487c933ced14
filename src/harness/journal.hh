/**
 * @file
 * Crash-safe checkpoint journal for long experiment sweeps.
 *
 * The journal is a line-oriented file: one self-contained JSON object
 * per completed point (schema "scd-journal-v1"), appended and flushed
 * the moment the point finishes, so a run killed at any instant loses
 * at most the in-flight points. --resume=<journal> reads the journal
 * back, restores every recorded point verbatim (all counters, output,
 * and status round-trip exactly), and re-runs only the rest — the
 * resulting figures and stats export are byte-identical to an
 * uninterrupted run. A truncated final line (the crash window) is
 * detected and ignored.
 *
 * Only usable points (Ok or Degraded) are journaled: failed or
 * timed-out points are retried on resume rather than having their
 * failure replayed forever.
 */

#ifndef SCD_HARNESS_JOURNAL_HH
#define SCD_HARNESS_JOURNAL_HH

#include <cstdio>
#include <map>
#include <mutex>
#include <string>

#include "experiment.hh"

namespace scd::harness
{

/** Schema identifier carried by every journal line. */
inline constexpr const char *kJournalSchema = "scd-journal-v1";

/** Append-side of the journal; thread-safe, one flushed line per point. */
class RunJournal
{
  public:
    RunJournal() = default;
    ~RunJournal();

    RunJournal(const RunJournal &) = delete;
    RunJournal &operator=(const RunJournal &) = delete;

    /**
     * Open @p path for appending; with @p truncate the file is emptied
     * first (a fresh --journal run). Throws FatalError when the file
     * cannot be opened.
     */
    void open(const std::string &path, bool truncate);

    bool active() const { return file_ != nullptr; }

    /**
     * Append one completed point keyed by @p key, flushing to the OS so
     * the record survives the process being killed. Non-usable runs are
     * skipped (see file comment). No-op when not open.
     */
    void append(const std::string &key, const ExperimentRun &run);

  private:
    std::FILE *file_ = nullptr;
    std::mutex mutex_;
};

/**
 * Read a journal back: every well-formed line becomes a (key -> run)
 * entry, later duplicates winning. A missing file yields an empty map
 * (resuming a run that never started is just a fresh run); malformed
 * or truncated trailing data is ignored with a warn().
 */
std::map<std::string, ExperimentRun>
loadJournal(const std::string &path);

/** Serialize one completed point as a single journal line (no '\n'). */
std::string journalLine(const std::string &key, const ExperimentRun &run);

/**
 * Parse one scd-journal-v1 line back into (@p key, @p run). Returns
 * false — leaving the outputs untouched — on malformed or truncated
 * data, on schema mismatches, and when a result field (exited,
 * instructions, cycles, textBytes, counters) is missing or has the wrong
 * JSON type. loadJournal() is the whole-file wrapper.
 */
bool parseJournalLine(const std::string &line, std::string &key,
                      ExperimentRun &run);

/**
 * Restore every point of @p set recorded in the journal at @p path and
 * collect the plan indices still to run into @p pending (in plan
 * order). Returns the number of restored points.
 */
size_t restoreJournaledPoints(ExperimentSet &set, const std::string &path,
                              std::vector<size_t> &pending);

} // namespace scd::harness

#endif // SCD_HARNESS_JOURNAL_HH
