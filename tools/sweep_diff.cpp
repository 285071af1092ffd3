/**
 * @file
 * sweep-diff: compare two SweepRunner result stores cell-by-fingerprint
 * and exit nonzero on drift, turning any campaign into a regression gate.
 *
 *   sweep-diff baseline.json candidate.json [--abs-tol X] [--rel-tol Y]
 *
 * Reports new/missing cells, episode-count mismatches, and stats that
 * differ beyond the tolerances (both default to 0: bit-exact). Exit code
 * 0 = stores match, 1 = drift, 2 = usage/I/O error. CI uses this to
 * check that a coordinator fleet writes exactly the store a serial run
 * of the same matrix does.
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/store_diff.hpp"

using namespace create;

namespace {

const char*
kindTag(StoreDiffEntry::Kind kind)
{
    switch (kind) {
      case StoreDiffEntry::Kind::OnlyInA: return "only-in-A";
      case StoreDiffEntry::Kind::OnlyInB: return "only-in-B";
      case StoreDiffEntry::Kind::Episodes: return "episodes";
      case StoreDiffEntry::Kind::Stat: return "stat";
    }
    return "?";
}

int
runDiff(int argc, char** argv)
{
    Cli cli(argc, argv);
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--", 2) == 0) {
            // Only this tool's value-taking flags consume a detached
            // token; an unknown bare flag must not swallow a store path.
            const bool takesValue =
                std::strcmp(argv[i], "--abs-tol") == 0 ||
                std::strcmp(argv[i], "--rel-tol") == 0;
            if (takesValue && std::strchr(argv[i], '=') == nullptr) {
                // A tolerance flag with no value would silently become
                // 1.0 through Cli's bare-flag convention ("--rel-tol" ==
                // 100% relative tolerance), neutering the regression
                // gate; demand an explicit value.
                if (i + 1 >= argc ||
                    std::strncmp(argv[i + 1], "--", 2) == 0) {
                    std::fprintf(stderr, "sweep-diff: %s needs a value\n",
                                 argv[i]);
                    return 2;
                }
                ++i; // skip the flag's value
            }
            continue;
        }
        paths.emplace_back(argv[i]);
    }
    if (cli.flag("help") || paths.size() != 2) {
        std::printf(
            "usage: sweep-diff A.json B.json [--abs-tol X] [--rel-tol Y]\n"
            "\nCompare two SweepRunner result stores cell-by-fingerprint\n"
            "(each fingerprint's episode ledger is folded). A stat\n"
            "passes when |a-b| <= abs-tol + rel-tol*max(|a|,|b|); both\n"
            "default to 0, i.e. bit-exact. Exit 0 = match, 1 = drift,\n"
            "2 = error.\n");
        return cli.flag("help") ? 0 : 2;
    }

    StoreDiffOptions opt;
    opt.absTol = cli.real("abs-tol", 0.0);
    opt.relTol = cli.real("rel-tol", 0.0);

    std::vector<StoreCell> a, b;
    std::string error;
    if (!loadStoreCells(paths[0], a, error) ||
        !loadStoreCells(paths[1], b, error)) {
        std::fprintf(stderr, "sweep-diff: %s\n", error.c_str());
        return 2;
    }

    if (a.empty() && b.empty()) {
        // Neither file contains a recognizable cell: comparing two bench
        // reports (or two empty stores) must not let a CI gate pass
        // vacuously as "0 differences".
        std::fprintf(stderr,
                     "sweep-diff: neither %s nor %s contains any store "
                     "cell; nothing was compared\n",
                     paths[0].c_str(), paths[1].c_str());
        return 2;
    }

    const StoreDiffResult res = diffStoreCells(a, b, opt);
    for (const StoreDiffEntry& e : res.entries)
        std::printf("%-10s %s\n           %s\n", kindTag(e.kind),
                    e.fingerprint.c_str(), e.detail.c_str());
    std::printf("sweep-diff: %d vs %d cells, %d compared, %zu difference%s\n",
                res.cellsA, res.cellsB, res.compared, res.entries.size(),
                res.entries.size() == 1 ? "" : "s");
    return res.clean() ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    // A CI gate must fail closed: an unreadable file or a JSON quirk the
    // loader throws on is a one-line diagnostic and exit 2, never an
    // unhandled-exception abort (which some CI runners report as a crash
    // and retry instead of surfacing).
    try {
        return runDiff(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "sweep-diff: %s\n", e.what());
        return 2;
    } catch (...) {
        std::fprintf(stderr, "sweep-diff: unknown error\n");
        return 2;
    }
}
