#pragma once

/**
 * @file
 * Shared scaffolding for the experiment benches. Every bench binary
 * regenerates one table/figure of the paper; run with no arguments for
 * the fast defaults, or raise --reps toward the paper's >=100 episode
 * repetitions and --threads to fan the work out (default: all hardware
 * threads). The sweep-based drivers (fig13/16/17/20/21, tab05) declare
 * their matrix on the SweepRunner campaign engine and additionally take
 * --out (resumable episode-ledger store), --resume, --shard i/N
 * (partition one campaign across N processes sharing a store),
 * --lease S (elastic lease-stealing workers sharing a store),
 * --connect host:port (socket workers of a create-coordinator campaign),
 * --progress, and --flush-every. A note on axes: see
 * EXPERIMENTS.md for why the BER axis of the small stand-in models sits a
 * few orders above the paper's (flips per inference is the invariant, not
 * BER).
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/serialize.hpp"
#include "common/table.hpp"
#include "core/anomaly.hpp"
#include "core/create_system.hpp"
#include "core/parallel_eval.hpp"
#include "core/sweep.hpp"
#include "hw/kernel_dispatch.hpp"

namespace create::bench {

/** Format a BER like "1e-04". */
inline std::string
berStr(double ber)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0e", ber);
    return buf;
}

/** Worker count for the parallel evaluator (--threads, default: all). */
inline int
evalThreads(const Cli& cli)
{
    const auto n = static_cast<int>(
        cli.integer("threads", ParallelEvaluator::defaultThreads()));
    return n < 1 ? 1 : n;
}

/** Standard preamble: announce the artifact, episode count, and threads. */
inline void
preamble(const char* artifact, int reps, int threads = 1)
{
    std::printf("Reproducing %s  (%d episodes/config; paper uses >=100, "
                "raise with --reps; %d eval thread%s, set with --threads)\n",
                artifact, reps, threads, threads == 1 ? "" : "s");
    // Which SIMD tier the quantized hot path selected on this host
    // (override with CREATE_FORCE_ISA; see src/hw/kernel_dispatch.hpp).
    std::printf("[simd] %s\n", simd::report().c_str());
}

/** Parsed standard options of an evaluate-style bench. */
struct BenchOptions
{
    int reps = 0;
    int threads = 1;
    std::string jsonPath;  //!< --json <path>: machine-readable records
    std::string storePath; //!< --out <path>: SweepRunner episode store
    bool resume = false;   //!< --resume: reuse ledgers already in the store
    bool progress = false; //!< --progress: stderr status line per flush
    int flushEvery = 16;   //!< --flush-every N: episodes per store flush
    int shardIndex = 0;    //!< --shard i/N: this process's partition
    int shardCount = 1;
    double leaseSeconds = 0.0; //!< --lease S: elastic lease-stealing mode
    /** --store-format json|binlog: on-disk format when --out creates the
     *  store (an existing store keeps its detected format). */
    StoreFormat storeFormat = StoreFormat::Json;
    /** --connect host:port: run as a socket worker of a
     *  create-coordinator campaign (no local store; mutually exclusive
     *  with --out/--resume/--shard/--lease). */
    std::string connect;
};

/**
 * SweepRunner options of a sweep-based driver
 * (--threads/--out/--resume/--shard/--progress/--flush-every).
 */
inline SweepRunner::Options
sweepOptions(const BenchOptions& o)
{
    SweepRunner::Options so;
    so.threads = o.threads;
    so.storePath = o.storePath;
    so.resume = o.resume;
    so.progress = o.progress;
    so.flushEvery = o.flushEvery;
    so.shardIndex = o.shardIndex;
    so.shardCount = o.shardCount;
    so.leaseSeconds = o.leaseSeconds;
    so.storeFormat = o.storeFormat;
    so.connect = o.connect;
    return so;
}

/**
 * Machine-readable result/latency records behind the shared --json flag.
 *
 * Benches add one flat record of numeric fields per measured point and
 * call write() at the end; the file is a JSON array (the JsonRecord
 * format of common/serialize, shared with the SweepRunner result store)
 * so perf trajectories can be tracked across commits (see
 * BENCH_micro.json at the repo root for the micro-kernel equivalent
 * emitted by bench_micro --json). Everything is a no-op when the flag is
 * absent.
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string path) : path_(std::move(path)) {}

    bool enabled() const { return !path_.empty(); }

    void add(const std::string& name,
             std::vector<std::pair<std::string, double>> fields)
    {
        if (enabled())
            records_.push_back({name, {}, std::move(fields)});
    }

    /** Write the collected records; prints where they went. */
    void write() const
    {
        if (!enabled())
            return;
        if (!writeJsonRecords(path_, records_)) {
            std::fprintf(stderr, "--json: cannot write %s\n", path_.c_str());
            return;
        }
        std::printf("\nWrote %zu JSON records to %s\n", records_.size(),
                    path_.c_str());
    }

  private:
    std::string path_;
    std::vector<JsonRecord> records_;
};

namespace detail {

inline BenchOptions
setupImpl(const Cli& cli, const char* artifact, int defaultReps,
          bool threaded, bool sweep, const char* extraHelp)
{
    if (cli.flag("help")) {
        std::printf("%s\n\nOptions:\n"
                    "  --reps N     episodes per configuration (default %d; "
                    "the paper uses >=100)\n",
                    artifact, defaultReps);
        if (threaded)
            std::printf("  --threads N  parallel evaluation workers "
                        "(default: all hardware threads, here %d)\n",
                        ParallelEvaluator::defaultThreads());
        std::printf("  --json PATH  also write machine-readable result "
                    "records to PATH\n");
        if (sweep)
            std::printf(
                "  --out PATH     resumable episode-ledger store (JSON; "
                "episodes flush in batches)\n"
                "  --resume       reuse episodes already in the --out "
                "store (prefix slices included)\n"
                "  --shard I/N    run partition I of N over the pending "
                "ledgers (share one --out)\n"
                "  --lease S      elastic mode: claim ledgers via leases "
                "in the --out store, stealing work\n"
                "                 from workers silent longer than S "
                "seconds (replaces the --shard partition)\n"
                "  --connect H:P  run as a socket worker of a "
                "create-coordinator campaign at host H port P\n"
                "                 (the coordinator owns the store; "
                "replaces --out/--resume/--shard/--lease)\n"
                "  --progress     one stderr status line per flush "
                "(episodes/s, success, ETA)\n"
                "  --flush-every N  episodes per store flush (default "
                "16)\n"
                "  --store-format F  on-disk format when --out creates "
                "the store: json (default,\n"
                "                 interchange) or binlog (per-writer "
                "append logs, O(batch) flushes);\n"
                "                 an existing store keeps its detected "
                "format\n");
        std::printf("%s", extraHelp ? extraHelp : "");
        std::exit(0);
    }
    BenchOptions o;
    o.reps = static_cast<int>(cli.integer("reps", defaultReps));
    if (o.reps < 1)
        o.reps = 1;
    o.threads = threaded ? evalThreads(cli) : 1;
    o.jsonPath = cli.str("json", "");
    if (sweep) {
        o.storePath = cli.str("out", "");
        o.resume = cli.flag("resume");
        o.progress = cli.flag("progress");
        o.flushEvery = static_cast<int>(cli.integer("flush-every", 16));
        const std::string shard = cli.str("shard", "");
        if (!shard.empty()) {
            int i = -1, n = 0;
            char tail = '\0';
            if (std::sscanf(shard.c_str(), "%d/%d%c", &i, &n, &tail) != 2 ||
                i < 0 || n < 1 || i >= n) {
                std::fprintf(stderr,
                             "error: --shard: expected i/N with 0 <= i < N, "
                             "got '%s'\n",
                             shard.c_str());
                std::exit(2);
            }
            o.shardIndex = i;
            o.shardCount = n;
        }
        const std::string fmt = cli.str("store-format", "");
        if (!fmt.empty() && !parseStoreFormat(fmt, o.storeFormat)) {
            std::fprintf(stderr,
                         "error: --store-format: expected json or binlog, "
                         "got '%s'\n",
                         fmt.c_str());
            std::exit(2);
        }
        o.leaseSeconds = cli.real("lease", 0.0);
        if (o.leaseSeconds < 0.0)
            o.leaseSeconds = 0.0;
        if (o.leaseSeconds > 0.0 && o.storePath.empty()) {
            std::fprintf(stderr,
                         "error: --lease needs --out (the lease records "
                         "live in the shared result store)\n");
            std::exit(2);
        }
        o.connect = cli.str("connect", "");
        if (!o.connect.empty() &&
            (!o.storePath.empty() || o.resume || o.shardCount > 1 ||
             o.leaseSeconds > 0.0)) {
            std::fprintf(stderr,
                         "error: --connect replaces "
                         "--out/--resume/--shard/--lease (the "
                         "coordinator owns all store state)\n");
            std::exit(2);
        }
    }
    preamble(artifact, o.reps, o.threads);
    return o;
}

} // namespace detail

/**
 * Shared flag handling for the evaluate-style benches: `--help` prints the
 * usage (with this bench's actual defaults) and exits; otherwise `--reps`
 * and `--threads` are parsed and the standard preamble is printed.
 */
inline BenchOptions
setup(const Cli& cli, const char* artifact, int defaultReps,
      const char* extraHelp = nullptr)
{
    return detail::setupImpl(cli, artifact, defaultReps, /*threaded=*/true,
                             /*sweep=*/false, extraHelp);
}

/** setup() for the SweepRunner drivers: adds --out / --resume. */
inline BenchOptions
setupSweep(const Cli& cli, const char* artifact, int defaultReps,
           const char* extraHelp = nullptr)
{
    return detail::setupImpl(cli, artifact, defaultReps, /*threaded=*/true,
                             /*sweep=*/true, extraHelp);
}

/**
 * Flag handling for the analytic (no-episode) benches: `--help` and the
 * standard preamble. These reports are deterministic analytics with no
 * repetition/threading knobs.
 */
inline void
setupAnalytic(const Cli& cli, const char* artifact)
{
    if (cli.flag("help")) {
        std::printf("%s\n\nOptions:\n"
                    "  --help       this message (deterministic analytic "
                    "report; no other flags)\n",
                    artifact);
        std::exit(0);
    }
    preamble(artifact, 0);
}

/** setup() for the serial benches (hand-rolled loops; no --threads). */
inline int
setupSerial(const Cli& cli, const char* artifact, int defaultReps,
            const char* extraHelp = nullptr)
{
    return detail::setupImpl(cli, artifact, defaultReps, /*threaded=*/false,
                             /*sweep=*/false, extraHelp)
        .reps;
}

} // namespace create::bench
