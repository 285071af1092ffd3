#pragma once

/**
 * @file
 * Cell-by-fingerprint comparison of two SweepRunner result stores, so any
 * campaign becomes a regression gate: run the matrix twice (different
 * commit, thread count, coordinator fleet, machine), `sweep-diff a.json
 * b.json`, and a nonzero exit means the results drifted.
 *
 * Each fingerprint's contiguous episode prefix folds through the same
 * aggregate() the engine uses (the per-episode records carry their
 * energy, so no platform model is needed). Fingerprints are compared as
 * opaque keys. Scheduling records (coordinator `worker|` telemetry,
 * `lease|` records older builds wrote) never become cells.
 */

#include <string>
#include <vector>

#include "agent/metrics.hpp"

namespace create {

/** One comparable cell of a store: a fingerprint and its folded stats. */
struct StoreCell
{
    std::string fingerprint;
    std::string platform; //!< from the ledger meta record, may be empty
    std::string label;    //!< from the ledger meta record, may be empty
    TaskStats stats;
    int episodes = 0; //!< episodes folded (the contiguous prefix length)
    /** The folded episode prefix itself; the raw sample source for
     *  sweep-stats' percentile engine. */
    std::vector<EpisodeRecord> records;
    /** Summed observability counters over the prefix; only comparable
     *  when every prefix episode carried them (hasMetrics). */
    EpisodeMetrics metrics;
    bool hasMetrics = false;
    /**
     * Per-worker episode counts over the folded prefix (coordinator
     * socket workers stamp each episode record with a `by` field naming
     * the worker that ran it; empty otherwise). Attribution only --
     * never compared by diffStoreCells.
     */
    std::vector<std::pair<std::string, int>> episodeOwners;
};

/** Tolerances for stat comparisons: pass when
 *  |a-b| <= absTol + relTol * max(|a|, |b|). Defaults demand equality. */
struct StoreDiffOptions
{
    double absTol = 0.0;
    double relTol = 0.0;
};

/** One reported difference. */
struct StoreDiffEntry
{
    enum class Kind
    {
        OnlyInA,   //!< cell missing from store B
        OnlyInB,   //!< cell new in store B
        Episodes,  //!< episode/success counts differ
        Stat,      //!< a derived stat differs beyond tolerance
    };
    Kind kind;
    std::string fingerprint;
    std::string detail; //!< human-readable, e.g. "successRate 0.5 vs 0.25"
};

/** Full comparison result. */
struct StoreDiffResult
{
    std::vector<StoreDiffEntry> entries;
    int cellsA = 0;
    int cellsB = 0;
    int compared = 0; //!< fingerprints present in both stores

    bool clean() const { return entries.empty(); }
};

/**
 * Load a store into comparable cells (see file comment). A truncated or
 * corrupted store is salvaged: the longest parseable record prefix loads,
 * the unparseable tail is copied to `<path>.quarantine`, and a one-line
 * note goes to stderr. Returns false with `error` set only when the file
 * is missing or yields no parseable records at all.
 *
 * `workers` (optional) receives the store's `worker|<id>` telemetry
 * records (range-dispatch counters written by the campaign coordinator;
 * see common/store_keys.hpp). Pure observability: they never become
 * cells, so diffs ignore them either way.
 */
bool loadStoreCells(const std::string& path, std::vector<StoreCell>& out,
                    std::string& error,
                    std::vector<JsonRecord>* workers = nullptr);

/**
 * Compare two loaded stores cell-by-fingerprint. Entries are ordered:
 * changed cells first (fingerprint order), then cells only in A, then
 * cells only in B.
 */
StoreDiffResult diffStoreCells(const std::vector<StoreCell>& a,
                               const std::vector<StoreCell>& b,
                               const StoreDiffOptions& opt = {});

/** loadStoreCells + diffStoreCells; throws std::runtime_error on I/O. */
StoreDiffResult diffStores(const std::string& pathA,
                           const std::string& pathB,
                           const StoreDiffOptions& opt = {});

} // namespace create
