#pragma once

/**
 * @file
 * Shared pieces of the campaign benchmark binary: the workload matrices,
 * clocks and resource probes, an in-memory span tracer, and a tiny JSON
 * line writer. Every role (campaign, coordinator, worker, replay, stamp)
 * prints exactly one JSON object per line on stdout; run.py parses them.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/sweep.hpp"

namespace perfbench {

/** A named benchmark workload: which matrix, how deep, how parallel. */
struct WorkloadSpec
{
    std::string name;
    int reps = 1;       //!< episodes per ledger
    int threads = 4;    //!< SweepRunner threads (per worker for a fleet)
    bool fleet = false; //!< coordinator + socket workers instead of one process
    int flushEvery = 16; //!< store flush batch of the process that owns the store
};

/** Look up a workload; throws std::invalid_argument on an unknown name. */
WorkloadSpec workloadByName(const std::string& name);

/**
 * The workload's cells, seeded seed0 + i, in the declaration order the
 * benchmark seed selects (seed 0 keeps the figure bench's order). Order
 * changes the campaign's wave and dispatch schedule, never its ledgers.
 */
std::vector<create::SweepCell> workloadCells(const WorkloadSpec& w,
                                             std::uint64_t seed0,
                                             std::uint64_t seed);

/** CLOCK_MONOTONIC seconds (the clock Python's time.monotonic reads). */
double monoNow();

/** User + system CPU seconds of this process (all threads). */
double cpuSeconds();

/** Peak resident set of this process in KiB. */
long maxRssKb();

/** One complete span (Chrome trace "X" event). */
struct Span
{
    std::string name;
    std::string cat;
    double startUs = 0.0;
    double durUs = 0.0;
    int episode = -1; //!< spans of one episode share its ledger index
    std::string ledger;
};

/** Spans kept in memory and written once, at the end, as Chrome trace. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    void add(std::string name, std::string cat, double start, double end,
             int episode = -1, std::string ledger = {})
    {
        if (enabled_)
            spans_.push_back({std::move(name), std::move(cat), start * 1e6,
                              (end - start) * 1e6, episode,
                              std::move(ledger)});
    }

    /** Write the Chrome trace-event JSON; false on I/O failure. */
    bool write(const std::string& path, const std::string& process) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

/** Builder of one flat JSON object printed as a single stdout line. */
class JsonLine
{
  public:
    JsonLine& num(const std::string& key, double v);
    JsonLine& str(const std::string& key, const std::string& v);
    std::string text() const { return "{" + body_ + "}"; }
    void print() const;

  private:
    void key(const std::string& k);
    std::string body_;
};

/** JSON string literal with escapes. */
std::string jsonQuote(const std::string& s);

/** Copy a finished binlog store into a JSON array file (for run.py). */
bool exportStore(const std::string& storeDir, const std::string& outPath,
                 std::string* error);

/** The replay role (replay.cpp). */
int runReplay(int argc, char** argv);

/** Value of `--flag` in argv, or `dflt`. */
std::string argValue(int argc, char** argv, const std::string& flag,
                     const std::string& dflt = {});

} // namespace perfbench
