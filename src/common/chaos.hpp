#pragma once

/**
 * @file
 * CREATE_CHAOS — fault-injection layer for the sweep/store path.
 *
 * Chaos is the standing proof behind the fault-tolerance story: the
 * chaos-gate CI job runs real campaigns with these faults enabled and
 * requires the final store to stay bit-exact against a serial golden.
 * The knobs are read once from the CREATE_CHAOS environment variable,
 * a comma-separated `key=value` list:
 *
 *     CREATE_CHAOS="abort=0.05,tear=0.3,connreset=0.05"
 *
 *   abort=P       with probability P per flush, _exit(137) *before*
 *                 writing — simulates a worker dying with a flush batch
 *                 in memory (kill -9 / OOM-kill shape).
 *   tear=P        with probability P per flush, truncate the store file
 *                 to a random fraction of its size *after* the write —
 *                 simulates a torn write / partial page landing on disk.
 *                 The next reader must salvage the parseable prefix.
 *   connreset=P   with probability P per coordinator-wire send, write
 *                 only a random prefix of the buffer and drop the
 *                 connection — simulates a mid-frame TCP reset. The
 *                 peer's stream decoder must buffer the torn frame and
 *                 the campaign must heal through reconnect/re-dispatch.
 *
 * CREATE_CHAOS_SEED pins the fault RNG for reproducible runs (default
 * seeds from pid so concurrent workers draw different fault schedules).
 * All injection points are no-ops when CREATE_CHAOS is unset — the
 * rolls are never taken, so chaos-off campaigns are byte-identical to
 * a build without this layer.
 */

#include <string>

namespace create::chaos {

struct Config
{
    double abortBeforeFlush = 0.0; //!< abort=P
    double tearWrite = 0.0;        //!< tear=P
    double connReset = 0.0;        //!< connreset=P

    bool enabled() const
    {
        return abortBeforeFlush > 0.0 || tearWrite > 0.0 || connReset > 0.0;
    }
};

/** Parses a CREATE_CHAOS spec string. Unknown keys and malformed
 *  values are ignored; probabilities are clamped to [0, 1]. */
Config parseChaosSpec(const char* spec);

/** Process-wide config, parsed once from CREATE_CHAOS. */
const Config& config();

/** If the abort fault fires, logs and _exit(137) — callers place this
 *  immediately before a store flush. */
void maybeAbortBeforeFlush();

/**
 * If the torn-write fault fires, truncate `path` to a random fraction
 * of its size, uniform in [0.05, 0.95], and log it; true when it tore.
 * Callers place this immediately after a store flush, on the file the
 * flush landed in.
 */
bool maybeTearWrite(const std::string& path);

/** True when the connection-reset fault fires for this wire send. */
bool shouldConnReset();

/** Fraction of the send buffer to put on the wire before dropping the
 *  connection, uniform in [0, 1) — mid-frame by construction for any
 *  multi-frame batch. */
double connResetKeepFraction();

} // namespace create::chaos
