#include "agent/metrics.hpp"

#include <cstring>
#include <map>

namespace create {

PaperEnergyModel::PaperEnergyModel()
    : PaperEnergyModel(workloads::jarvisPlanner(),
                       workloads::jarvisController(),
                       workloads::entropyPredictor())
{
}

PaperEnergyModel::PaperEnergyModel(Workload plannerW, Workload controllerW,
                                   Workload predictorW)
    : plannerW_(std::move(plannerW)), controllerW_(std::move(controllerW)),
      predictorW_(std::move(predictorW))
{
}

double
PaperEnergyModel::plannerJ(const EpisodeResult& r) const
{
    return r.plannerInvocations * plannerW_.paperGops * 1e9 *
           jPerOpNominal() * r.plannerV2Ratio;
}

double
PaperEnergyModel::controllerJ(const EpisodeResult& r) const
{
    return static_cast<double>(r.steps) * controllerW_.paperGops * 1e9 *
           jPerOpNominal() * r.controllerV2Ratio;
}

double
PaperEnergyModel::predictorJ(const EpisodeResult& r) const
{
    // Predictor always runs at nominal voltage (error-free prediction).
    return r.predictorInvocations * predictorW_.paperGops * 1e9 *
           jPerOpNominal();
}

double
PaperEnergyModel::episodeComputeJ(const EpisodeResult& r) const
{
    return plannerJ(r) + controllerJ(r) + predictorJ(r);
}

TaskStats
aggregate(const EpisodeRecord* records, std::size_t n)
{
    TaskStats s;
    s.episodes = static_cast<int>(n);
    double stepsSuccess = 0.0;
    double vP = 0.0, vC = 0.0, inv = 0.0;
    double v2P = 0.0, v2C = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const EpisodeResult& r = records[i].result;
        if (r.success) {
            ++s.successes;
            stepsSuccess += r.steps;
        }
        s.avgComputeJ += records[i].computeJ;
        vP += r.plannerEffV;
        vC += r.controllerEffV;
        inv += r.plannerInvocations;
        v2P += r.plannerV2Ratio;
        v2C += r.controllerV2Ratio;
    }
    if (s.episodes > 0) {
        s.successRate = static_cast<double>(s.successes) / s.episodes;
        s.avgComputeJ /= s.episodes;
        s.avgPlannerEffV = vP / s.episodes;
        s.avgControllerEffV = vC / s.episodes;
        s.avgPlannerInvocations = inv / s.episodes;
        s.avgPlannerV2 = v2P / s.episodes;
        s.avgControllerV2 = v2C / s.episodes;
    }
    if (s.successes > 0)
        s.avgStepsSuccess = stepsSuccess / s.successes;
    return s;
}

TaskStats
aggregate(const std::vector<EpisodeRecord>& records)
{
    return aggregate(records.data(), records.size());
}

TaskStats
aggregate(const std::vector<EpisodeResult>& results,
          const PaperEnergyModel& energy)
{
    // Price each episode, then run the pure fold: the sums accumulate in
    // the same order over the same doubles as the pre-ledger loop did, so
    // the aggregate is bit-identical.
    std::vector<EpisodeRecord> records;
    records.reserve(results.size());
    for (const auto& r : results)
        records.push_back({r, energy.episodeComputeJ(r), EpisodeMetrics{}});
    return aggregate(records);
}

namespace {

/** EpisodeResult <-> JsonRecord numeric field mapping. */
struct EpisodeField
{
    const char* key;
    double (*get)(const EpisodeRecord&);
    void (*set)(EpisodeRecord&, double);
};

constexpr EpisodeField kEpisodeFields[] = {
    {"success", [](const EpisodeRecord& e) {
         return e.result.success ? 1.0 : 0.0;
     },
     [](EpisodeRecord& e, double v) { e.result.success = v != 0.0; }},
    {"steps", [](const EpisodeRecord& e) {
         return static_cast<double>(e.result.steps);
     },
     [](EpisodeRecord& e, double v) { e.result.steps = static_cast<int>(v); }},
    {"plannerInvocations",
     [](const EpisodeRecord& e) {
         return static_cast<double>(e.result.plannerInvocations);
     },
     [](EpisodeRecord& e, double v) {
         e.result.plannerInvocations = static_cast<int>(v);
     }},
    {"predictorInvocations",
     [](const EpisodeRecord& e) {
         return static_cast<double>(e.result.predictorInvocations);
     },
     [](EpisodeRecord& e, double v) {
         e.result.predictorInvocations = static_cast<int>(v);
     }},
    {"subtasksCompleted",
     [](const EpisodeRecord& e) {
         return static_cast<double>(e.result.subtasksCompleted);
     },
     [](EpisodeRecord& e, double v) {
         e.result.subtasksCompleted = static_cast<int>(v);
     }},
    {"plannerV2Ratio",
     [](const EpisodeRecord& e) { return e.result.plannerV2Ratio; },
     [](EpisodeRecord& e, double v) { e.result.plannerV2Ratio = v; }},
    {"controllerV2Ratio",
     [](const EpisodeRecord& e) { return e.result.controllerV2Ratio; },
     [](EpisodeRecord& e, double v) { e.result.controllerV2Ratio = v; }},
    {"plannerEffV",
     [](const EpisodeRecord& e) { return e.result.plannerEffV; },
     [](EpisodeRecord& e, double v) { e.result.plannerEffV = v; }},
    {"controllerEffV",
     [](const EpisodeRecord& e) { return e.result.controllerEffV; },
     [](EpisodeRecord& e, double v) { e.result.controllerEffV = v; }},
    {"bitFlips",
     [](const EpisodeRecord& e) {
         return static_cast<double>(e.result.bitFlips);
     },
     [](EpisodeRecord& e, double v) {
         e.result.bitFlips = static_cast<std::uint64_t>(v);
     }},
    {"anomaliesCleared",
     [](const EpisodeRecord& e) {
         return static_cast<double>(e.result.anomaliesCleared);
     },
     [](EpisodeRecord& e, double v) {
         e.result.anomaliesCleared = static_cast<std::uint64_t>(v);
     }},
    {"computeJ", [](const EpisodeRecord& e) { return e.computeJ; },
     [](EpisodeRecord& e, double v) { e.computeJ = v; }},
};

} // namespace

JsonRecord
episodeToRecord(std::string name, const EpisodeRecord& record)
{
    JsonRecord rec;
    rec.name = std::move(name);
    rec.numbers.reserve(std::size(kEpisodeFields));
    for (const auto& f : kEpisodeFields)
        rec.numbers.emplace_back(f.key, f.get(record));
    // Schema-v3 optional block: absent entirely when the registry was off,
    // so a metrics-off store is byte-identical to a v2-era one record-wise.
    // Counters fit doubles exactly up to 2^53; episode-scale tallies sit
    // far below that, so the %.17g round trip is lossless.
    if (record.metrics.present) {
        const EpisodeMetrics& m = record.metrics;
        rec.numbers.emplace_back("wallMs", m.wallMs);
        for (const auto& f : kEpisodeMetricFields)
            rec.numbers.emplace_back(f.first,
                                     static_cast<double>(m.*(f.second)));
        for (const auto& [tag, c] : m.layers)
            for (const auto& f : kLayerFaultFields)
                if (c.*(f.second) != 0)
                    rec.numbers.emplace_back(
                        std::string(kLayerFieldPrefix) + tag + "." + f.first,
                        static_cast<double>(c.*(f.second)));
    }
    return rec;
}

bool
episodeFromRecord(const JsonRecord& rec, EpisodeRecord& out)
{
    out = EpisodeRecord{};
    for (const auto& f : kEpisodeFields) {
        bool found = false;
        for (const auto& [key, value] : rec.numbers) {
            if (key == f.key) {
                f.set(out, value);
                found = true;
                break;
            }
        }
        if (!found)
            return false;
    }
    // Optional metrics block: a v2 record simply has none of these keys,
    // and the episode still parses (metrics.present stays false).
    std::map<std::string, LayerFaultCounters> layerMap;
    const std::size_t prefixLen = std::strlen(kLayerFieldPrefix);
    for (const auto& [key, value] : rec.numbers) {
        if (key == "wallMs") {
            out.metrics.present = true;
            out.metrics.wallMs = value;
            continue;
        }
        bool matched = false;
        for (const auto& f : kEpisodeMetricFields) {
            if (key == f.first) {
                out.metrics.*(f.second) = static_cast<std::uint64_t>(value);
                matched = true;
                break;
            }
        }
        if (matched || key.compare(0, prefixLen, kLayerFieldPrefix) != 0)
            continue;
        // "L.<tag>.<field>": tags may contain dots, the field name cannot.
        const std::size_t dot = key.rfind('.');
        if (dot == std::string::npos || dot <= prefixLen)
            continue;
        const std::string tag = key.substr(prefixLen, dot - prefixLen);
        const std::string field = key.substr(dot + 1);
        for (const auto& f : kLayerFaultFields) {
            if (field == f.first) {
                layerMap[tag].*(f.second) =
                    static_cast<std::uint64_t>(value);
                break;
            }
        }
    }
    out.metrics.layers.assign(layerMap.begin(), layerMap.end());
    return true;
}

} // namespace create
