#include "core/embodied_system.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace create {

CreateConfig
CreateConfig::clean()
{
    return CreateConfig{};
}

CreateConfig
CreateConfig::uniform(double ber)
{
    CreateConfig cfg;
    cfg.mode = InjectionMode::Uniform;
    cfg.uniformBer = ber;
    return cfg;
}

CreateConfig
CreateConfig::atVoltage(double plannerV, double controllerV)
{
    CreateConfig cfg;
    cfg.mode = InjectionMode::Voltage;
    cfg.plannerVoltage = plannerV;
    cfg.controllerVoltage = controllerV;
    return cfg;
}

CreateConfig
CreateConfig::fullCreate(double plannerV, EntropyVoltagePolicy policy,
                         int interval)
{
    CreateConfig cfg;
    cfg.mode = InjectionMode::Voltage;
    cfg.anomalyDetection = true;
    cfg.weightRotation = true;
    cfg.voltageScaling = true;
    cfg.plannerVoltage = plannerV;
    cfg.controllerVoltage = TimingErrorModel::kNominalVoltage;
    cfg.policy = std::move(policy);
    cfg.vsInterval = interval;
    return cfg;
}

void
CreateConfig::applyTo(ComputeContext& ctx, bool isPlanner) const
{
    ctx.anomalyDetection = anomalyDetection;
    ctx.protection = protection;
    ctx.bits = bits;
    ctx.componentFilter = componentFilter;
    const bool inject = isPlanner ? injectPlanner : injectController;
    if (!inject || mode == InjectionMode::None) {
        ctx.setCleanMode();
        ctx.setVoltage(isPlanner ? plannerVoltage : controllerVoltage);
        return;
    }
    if (mode == InjectionMode::Uniform) {
        const double override_ = isPlanner ? plannerBer : controllerBer;
        ctx.setUniformBer(override_ >= 0.0 ? override_ : uniformBer);
        ctx.setVoltage(isPlanner ? plannerVoltage : controllerVoltage);
    } else {
        ctx.setVoltage(isPlanner ? plannerVoltage : controllerVoltage);
        ctx.setVoltageMode();
    }
}

std::vector<EpisodeResult>
EmbodiedSystem::runJobs(const std::vector<EpisodeJob>& jobs, int threads,
                        EpisodeSink* sink)
{
    const int n = static_cast<int>(jobs.size());
    const int nThreads = std::max(1, std::min(threads, n));
    // Serial freeze point: build lazy models and freeze every layer the
    // configs touch before any thread runs, so episodes only read shared
    // model state.
    std::vector<const CreateConfig*> prepared;
    for (const EpisodeJob& job : jobs) {
        if (std::find(prepared.begin(), prepared.end(), job.cfg) !=
            prepared.end())
            continue;
        if (nThreads > 1 && !prepared.empty() &&
            job.cfg->bits != prepared.front()->bits)
            throw std::invalid_argument(
                "EmbodiedSystem::runJobs: a threaded fan-out must keep to "
                "one QuantBits width");
        prepare(*job.cfg);
        prepared.push_back(job.cfg);
    }

    std::vector<EpisodeResult> results(jobs.size());
    std::atomic<int> next{0};
    std::mutex errorMu;
    std::exception_ptr firstError;
    const auto work = [&] {
        try {
            for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
                const EpisodeJob& job = jobs[static_cast<std::size_t>(i)];
                EpisodeResult& slot = results[static_cast<std::size_t>(i)];
                // An episode runs wholly on this thread, so the
                // thread-local registry brackets exactly its counters.
                MetricsRegistry& reg = MetricsRegistry::tls();
                reg.beginEpisode();
                const auto t0 = std::chrono::steady_clock::now();
                slot = runEpisode(job.taskId, job.seed, *job.cfg);
                const double wallMs =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                if (sink)
                    sink->onEpisode(i, slot, reg.endEpisode(wallMs));
            }
        } catch (...) {
            next.store(n); // hand out no further jobs
            std::lock_guard<std::mutex> lock(errorMu);
            if (!firstError)
                firstError = std::current_exception();
        }
    };
    std::vector<std::thread> helpers;
    helpers.reserve(static_cast<std::size_t>(nThreads - 1));
    for (int t = 1; t < nThreads; ++t)
        helpers.emplace_back(work);
    work();
    for (std::thread& h : helpers)
        h.join();
    if (firstError)
        std::rethrow_exception(firstError);
    return results;
}

std::vector<EpisodeResult>
EmbodiedSystem::runEpisodes(int taskId, const CreateConfig& cfg, int reps,
                            std::uint64_t seed0)
{
    std::vector<EpisodeJob> jobs;
    jobs.reserve(static_cast<std::size_t>(std::max(reps, 0)));
    for (int i = 0; i < reps; ++i)
        jobs.push_back({taskId, &cfg, seed0 + static_cast<std::uint64_t>(i)});
    return runJobs(jobs, evalThreads_);
}

TaskStats
EmbodiedSystem::evaluate(int taskId, const CreateConfig& cfg, int reps,
                         std::uint64_t seed0)
{
    return aggregate(runEpisodes(taskId, cfg, reps, seed0), energyModel());
}

void
EmbodiedSystem::setEvalThreads(int n)
{
    evalThreads_ = n < 1 ? 1 : n;
}

int
EmbodiedSystem::defaultEvalThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

} // namespace create
