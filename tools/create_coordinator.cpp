/**
 * @file
 * create-coordinator: the socket campaign coordinator process.
 *
 *   create-coordinator --store PATH [--store-format json|binlog]
 *                      [--port N] [--range N] [--range-timeout S]
 *                      [--once] [--verbose]
 *
 * Owns one campaign store, serves pending episode ranges to socket
 * workers (any sweep driver run with `--connect host:port`, or any
 * SweepRunner with Options::connect set), and ingests their completed
 * episode records -- no shared filesystem required. This is the one way
 * to spread a campaign over processes or machines; see
 * core/coordinator.hpp for the wire protocol.
 *
 * Prints `listening on port N` on stdout once the socket is bound --
 * scripts that spawn the coordinator with --port 0 wait for this line
 * to learn the ephemeral port.
 *
 * Exit code 0 = clean finish (with --once: campaign complete), 1 =
 * terminal store failure mid-campaign (the store salvages on restart),
 * 2 = usage error.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "core/coordinator.hpp"

using namespace create;

namespace {

Coordinator* gCoordinator = nullptr;

void
onSignal(int)
{
    if (gCoordinator)
        gCoordinator->stop();
}

void
usage(std::FILE* to)
{
    std::fprintf(
        to,
        "usage: create-coordinator --store PATH [options]\n"
        "\n"
        "Serve episode ranges of a sweep campaign over TCP and ingest\n"
        "workers' completed records into the store (no shared\n"
        "filesystem required).\n"
        "\n"
        "  --store PATH          the campaign store (required)\n"
        "  --store-format FMT    json|binlog for a new store (default\n"
        "                        binlog; an existing store keeps its\n"
        "                        detected format)\n"
        "  --port N              TCP port (default 0 = ephemeral;\n"
        "                        printed as 'listening on port N')\n"
        "  --range N             episodes per dispatched range\n"
        "                        (default 16; shrinks near the tail)\n"
        "  --range-timeout S     range assignment timeout seconds\n"
        "                        (default 30): a worker silent this\n"
        "                        long forfeits its range\n"
        "  --once                exit once every declared ledger is\n"
        "                        complete and the fleet disconnected\n"
        "                        (2 s later if a worker dropped\n"
        "                        without saying goodbye; at least 4 s\n"
        "                        after a restart on a store a fleet\n"
        "                        wrote)\n"
        "  --verbose             per-range dispatch log on stderr\n");
}

bool
parseInt(const char* s, int& out)
{
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end == s || (end && *end != '\0') || v < 0 || v > 1 << 30)
        return false;
    out = static_cast<int>(v);
    return true;
}

int
runTool(int argc, char** argv)
{
    Coordinator::Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "create-coordinator: %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (arg == "--store") {
            opt.storePath = value("--store");
        } else if (arg == "--store-format") {
            const char* v = value("--store-format");
            if (!parseStoreFormat(v, opt.storeFormat)) {
                std::fprintf(stderr,
                             "create-coordinator: --store-format: expected "
                             "json or binlog, got '%s'\n",
                             v);
                return 2;
            }
        } else if (arg == "--port") {
            if (!parseInt(value("--port"), opt.port) || opt.port > 65535) {
                std::fprintf(stderr, "create-coordinator: bad --port\n");
                return 2;
            }
        } else if (arg == "--range") {
            if (!parseInt(value("--range"), opt.rangeEpisodes) ||
                opt.rangeEpisodes < 1) {
                std::fprintf(stderr, "create-coordinator: bad --range\n");
                return 2;
            }
        } else if (arg == "--range-timeout") {
            char* end = nullptr;
            const char* v = value("--range-timeout");
            opt.rangeTimeoutSeconds = std::strtod(v, &end);
            if (end == v || (end && *end != '\0') ||
                opt.rangeTimeoutSeconds <= 0.0) {
                std::fprintf(stderr,
                             "create-coordinator: bad --range-timeout\n");
                return 2;
            }
        } else if (arg == "--once") {
            opt.once = true;
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else {
            std::fprintf(stderr, "create-coordinator: unknown flag %s\n",
                         argv[i]);
            usage(stderr);
            return 2;
        }
    }
    if (opt.storePath.empty()) {
        usage(stderr);
        return 2;
    }

    Coordinator coord(opt);
    std::string error;
    if (!coord.start(&error)) {
        std::fprintf(stderr, "create-coordinator: %s\n", error.c_str());
        return 2;
    }
    std::printf("listening on port %d\n", coord.port());
    std::fflush(stdout);

    gCoordinator = &coord;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    coord.runLoop();
    gCoordinator = nullptr;

    std::fprintf(stderr,
                 "create-coordinator: %lld episodes ingested, %lld ranges "
                 "dispatched (%lld re-dispatched)\n",
                 coord.episodesIngested(), coord.rangesDispatched(),
                 coord.rangesRedispatched());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return runTool(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "create-coordinator: %s\n", e.what());
        return 1;
    }
}
