#pragma once

/**
 * @file
 * The record-key grammar of the SweepRunner result store, shared by every
 * layer that names or parses store records: the sweep engine, the store
 * readers (diff/stats), and both storage backends (the JSON interchange
 * format and the binary append log, whose frame codec compresses episode
 * and lease keys through this exact grammar -- common/binlog reconstructs
 * names with these helpers, so the two formats can never disagree on what
 * a key means).
 *
 * Key forms:
 *   `sweep-store`          the store's schema record
 *   `<fingerprint>`        a ledger meta record (platform/label/task)
 *   `<fingerprint>#<i>`    episode i of the fingerprint's ledger
 *   `lease|<fingerprint>`  a lease record (written by older builds only)
 *   `worker|<workerId>`    a worker's range-dispatch telemetry record
 * Anything else (bench reports, records of foreign tools) is opaque.
 */

#include <string>

namespace create {

/**
 * Schema version written by the episode-ledger store.
 *
 * v3 adds optional per-episode observability fields (wallMs, the
 * flip-attribution counters, per-layer `L.<tag>.<field>` keys) to episode
 * records. v2 stores load losslessly -- the fields simply are not there
 * and the episode's metrics stay absent -- and any flush rewrites the
 * schema record at the current version. Older (v2-only) builds refuse v3
 * stores via the existing future-schema guard rather than stripping the
 * new fields on their next rewrite.
 */
constexpr int kSweepStoreSchema = 3;
/** Name of the store's schema record. */
constexpr const char* kSweepStoreSchemaRecord = "sweep-store";

/** Store key of one ledger episode: `<fingerprint>#<index>`. */
std::string sweepEpisodeKey(const std::string& fingerprint, int index);

/**
 * Parse an episode store key; returns the episode index and (optionally)
 * the fingerprint, or -1 when the name is not an episode key.
 */
int sweepEpisodeIndex(const std::string& recordName,
                      std::string* fingerprint = nullptr);

/**
 * Store key of a ledger's lease record: `lease|<fingerprint>`. Builds
 * that ran filesystem lease workers wrote these (fields {owner, gen,
 * renewedAt, done}); nothing writes them now, but the grammar and the
 * binlog Lease frame stay so those stores still load. They are
 * scheduling state, not results: readers carry them as opaque records
 * and never compare them.
 */
std::string sweepLeaseKey(const std::string& fingerprint);

/**
 * True when `recordName` is a lease record key; optionally yields the
 * fingerprint it leases.
 */
bool sweepLeaseFingerprint(const std::string& recordName,
                           std::string* fingerprint = nullptr);

/**
 * Store key of a worker's telemetry record: `worker|<workerId>`. Written
 * by the campaign coordinator per connected worker -- fields
 * {rangesAssigned, rangesCompleted, rangesRedispatched, episodes,
 * elapsed (s), rangeP50Ms, rangeP95Ms} -- purely observability: store
 * readers never fold them into cells, so campaigns with and without
 * telemetry stay `sweep-diff` bit-exact.
 */
std::string sweepWorkerKey(const std::string& workerId);

/**
 * True when `recordName` is a worker telemetry key; optionally yields
 * the worker id.
 */
bool sweepWorkerId(const std::string& recordName,
                   std::string* workerId = nullptr);

} // namespace create
