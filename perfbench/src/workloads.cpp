#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/platform_registry.hpp"
#include "core/store_backend.hpp"

using namespace create;

namespace perfbench {

WorkloadSpec
workloadByName(const std::string& name)
{
    // Depths are chosen so one campaign pass takes about 3 s on a 4-core
    // host and yields at least 200 episodes, so each pass has its own p95
    // with ten samples beyond it and a run reports medians over ~10 passes.
    if (name == "fig13-matrix")
        return {name, 5, 4, false, 16};
    // Two threads, not four: at four, the fusion queue's hand-offs spend
    // more time in the kernel than in the models (sys time above user
    // time), so episode latency follows the host's scheduler, not the
    // program. Two threads still fan the ledger out through the queue.
    if (name == "tab05-deep")
        return {name, 320, 2, false, 16};
    // Fleet workers run one thread each: with episodes fanned out inside a
    // socket worker (threads > 1), SweepRunner's CoordSink appends to its
    // range buffer and sends from the evaluator threads without a lock,
    // and about half of all 2-thread fig17 fleets die of the heap damage
    // (SIGSEGV, SIGABRT, bad_alloc). A benchmark workload must not fail.
    if (name == "fig17-fleet")
        return {name, 10, 1, true, 64};
    throw std::invalid_argument("unknown workload '" + name + "'");
}

namespace {

std::string
berStr(double ber)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0e", ber);
    return buf;
}

/** The Fig. 13 matrix of bench/bench_fig13_techniques.cpp (42 ledgers). */
std::vector<SweepCell>
fig13Cells(int reps, std::uint64_t seed0)
{
    std::vector<SweepCell> cells;
    const auto cell = [&](const CreateConfig& cfg, const std::string& label) {
        cells.push_back({"jarvis-1", static_cast<int>(MineTask::Wooden), cfg,
                         reps, seed0, label});
    };
    for (double ber : {1e-4, 3e-4, 1e-3}) {
        CreateConfig base = CreateConfig::uniform(ber);
        base.injectController = false;
        CreateConfig ad = base;
        ad.anomalyDetection = true;
        CreateConfig wr = base;
        wr.weightRotation = true;
        cell(base, "a/base@" + berStr(ber));
        cell(ad, "a/AD@" + berStr(ber));
        cell(wr, "c/WR@" + berStr(ber));
    }
    for (double ber : {1e-3, 5e-3, 1e-2}) {
        CreateConfig base = CreateConfig::uniform(ber);
        base.injectPlanner = false;
        CreateConfig ad = base;
        ad.anomalyDetection = true;
        cell(base, "b/base@" + berStr(ber));
        cell(ad, "b/AD@" + berStr(ber));
    }
    for (double v : {0.90, 0.80, 0.75, 0.72, 0.70, 0.67}) {
        CreateConfig cfg = CreateConfig::atVoltage(0.90, v);
        cfg.injectPlanner = false;
        cell(cfg, "d/const" + std::to_string(v));
    }
    for (char p : {'A', 'B', 'C', 'D', 'E', 'F'}) {
        CreateConfig cfg = CreateConfig::atVoltage(0.90, 0.90);
        cfg.injectPlanner = false;
        cfg.voltageScaling = true;
        cfg.policy = EntropyVoltagePolicy::preset(p);
        cell(cfg, std::string("d/policy") + p);
    }
    for (const auto& [ad, wr] : {std::pair{false, false}, {true, false},
                                 {false, true}, {true, true}})
        for (double ber : {1e-3, 3e-3, 1e-2}) {
            CreateConfig cfg = CreateConfig::uniform(ber);
            cfg.injectController = false;
            cfg.anomalyDetection = ad;
            cfg.weightRotation = wr;
            cell(cfg, "e/" + std::to_string(ad) + std::to_string(wr) + "@" +
                          berStr(ber));
        }
    const std::vector<double> th = {0.04, 0.12, 0.30};
    const std::vector<EntropyVoltagePolicy> policies = {
        EntropyVoltagePolicy::preset('E'),
        EntropyVoltagePolicy::preset('F'),
        EntropyVoltagePolicy(th, {0.76, 0.70, 0.65, 0.62}, "G"),
        EntropyVoltagePolicy(th, {0.72, 0.67, 0.62, 0.60}, "H"),
    };
    for (const auto& p : policies) {
        CreateConfig vs = CreateConfig::atVoltage(0.90, 0.90);
        vs.injectPlanner = false;
        vs.voltageScaling = true;
        vs.policy = p;
        CreateConfig vsAd = vs;
        vsAd.anomalyDetection = true;
        cell(vs, "f/VS-" + p.name());
        cell(vsAd, "f/AD+VS-" + p.name());
    }
    return cells;
}

/** The Table 5 ledger of bench/bench_tab05_repetitions.cpp, deepened. */
std::vector<SweepCell>
tab05Cells(int reps, std::uint64_t seed0)
{
    CreateConfig cfg = CreateConfig::uniform(1e-3);
    cfg.injectPlanner = false;
    std::vector<SweepCell> cells;
    for (int r : {10, 20, 40, 60, 80, 100, 120})
        if (r <= reps)
            cells.push_back({"jarvis-1", static_cast<int>(MineTask::Wooden),
                             cfg, r, seed0, "tab05@" + std::to_string(r)});
    cells.push_back({"jarvis-1", static_cast<int>(MineTask::Wooden), cfg, reps,
                     seed0, "tab05"});
    return cells;
}

/** The Fig. 17 matrix of bench/bench_fig17_cross_platform.cpp (96 ledgers). */
std::vector<SweepCell>
fig17Cells(int reps, std::uint64_t seed0)
{
    std::vector<SweepCell> cells;
    const auto& reg = PlatformRegistry::instance();
    const auto cell = [&](const PlatformInfo& info, int task,
                          const CreateConfig& cfg, const std::string& label) {
        cells.push_back({info.name, task, cfg, reps, seed0,
                         info.name + "/" + label});
    };
    for (const auto& info : reg.all()) {
        CreateConfig adwr = CreateConfig::atVoltage(info.defaultPlannerV,
                                                    info.defaultControllerV);
        adwr.anomalyDetection = true;
        adwr.weightRotation = true;
        adwr.injectController = false;
        for (const int task : info.plannerTasks) {
            cell(info, task, CreateConfig::clean(), "clean");
            cell(info, task, adwr, "AD+WR");
        }
    }
    for (const auto& info : reg.all()) {
        CreateConfig advs = CreateConfig::atVoltage(info.defaultControllerV,
                                                    info.defaultControllerV);
        advs.anomalyDetection = true;
        advs.voltageScaling = true;
        advs.policy = EntropyVoltagePolicy::preset('E');
        advs.injectPlanner = false;
        for (const int task : info.controllerTasks) {
            cell(info, task, CreateConfig::clean(), "clean");
            cell(info, task, advs, "AD+VS");
        }
    }
    for (const auto& info : reg.all()) {
        if (info.envFamily != "navigation")
            continue;
        CreateConfig unprot =
            CreateConfig::atVoltage(info.defaultPlannerV, 0.80);
        CreateConfig full = CreateConfig::fullCreate(
            info.defaultPlannerV, EntropyVoltagePolicy::preset('E'));
        std::vector<int> missions = info.plannerTasks;
        for (const int t : info.controllerTasks)
            if (std::find(missions.begin(), missions.end(), t) ==
                missions.end())
                missions.push_back(t);
        std::sort(missions.begin(), missions.end());
        for (const int task : missions) {
            cell(info, task, CreateConfig::clean(), "clean");
            cell(info, task, unprot, "unprotected");
            cell(info, task, full, "CREATE");
        }
    }
    return cells;
}

std::uint64_t
splitmix(std::uint64_t& s)
{
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

std::vector<SweepCell>
workloadCells(const WorkloadSpec& w, std::uint64_t seed0, std::uint64_t seed)
{
    std::vector<SweepCell> cells;
    if (w.name == "fig13-matrix")
        cells = fig13Cells(w.reps, seed0);
    else if (w.name == "tab05-deep")
        cells = tab05Cells(w.reps, seed0);
    else
        cells = fig17Cells(w.reps, seed0);
    if (seed != 0) {
        // Fisher-Yates on a splitmix64 stream: portable and seed-stable.
        std::uint64_t s = seed;
        for (std::size_t i = cells.size(); i > 1; --i)
            std::swap(cells[i - 1], cells[splitmix(s) % i]);
    }
    return cells;
}

double
monoNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

long
maxRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

std::string
jsonQuote(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void
JsonLine::key(const std::string& k)
{
    if (!body_.empty())
        body_ += ", ";
    body_ += jsonQuote(k) + ": ";
}

JsonLine&
JsonLine::num(const std::string& k, double v)
{
    key(k);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    body_ += buf;
    return *this;
}

JsonLine&
JsonLine::str(const std::string& k, const std::string& v)
{
    key(k);
    body_ += jsonQuote(v);
    return *this;
}

void
JsonLine::print() const
{
    std::printf("%s\n", text().c_str());
    std::fflush(stdout);
}

bool
Tracer::write(const std::string& path, const std::string& process) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "{\"traceEvents\": [\n";
    f << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"args\": {\"name\": "
      << jsonQuote(process) << "}}";
    char buf[64];
    for (const Span& s : spans_) {
        f << ",\n{\"name\": " << jsonQuote(s.name)
          << ", \"cat\": " << jsonQuote(s.cat) << ", \"ph\": \"X\", ";
        std::snprintf(buf, sizeof(buf), "\"ts\": %.3f, \"dur\": %.3f",
                      s.startUs, s.durUs);
        f << buf << ", \"pid\": 1, \"tid\": 1";
        if (s.episode >= 0)
            f << ", \"args\": {\"episode\": " << s.episode
              << ", \"ledger\": " << jsonQuote(s.ledger) << "}";
        f << "}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

bool
exportStore(const std::string& storeDir, const std::string& outPath,
            std::string* error)
{
    auto backend =
        openStoreBackend(storeDir, StoreFormat::Binlog, "perfbench-export");
    std::vector<JsonRecord> recs;
    StoreLoadInfo info;
    if (!backend->load(recs, &info, /*quarantineBadTails=*/false)) {
        if (error)
            *error = "no store at " + storeDir;
        return false;
    }
    if (info.salvaged) {
        if (error)
            *error = "store " + storeDir + " has a torn tail";
        return false;
    }
    return writeJsonRecords(outPath, recs, error);
}

std::string
argValue(int argc, char** argv, const std::string& flag,
         const std::string& dflt)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (argv[i] == flag)
            return argv[i + 1];
    return dflt;
}

} // namespace perfbench
