/** @file Tests for the episode fan-out (EmbodiedSystem::runJobs, reached
 *  through setEvalThreads) and the EmbodiedSystem facade: serial-vs-
 *  threaded bit-identity on both platform backends, per-episode RNG
 *  stream isolation over contiguous and shuffled job lists, and the
 *  generic interface surface. */

#include <algorithm>
#include <random>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/create_system.hpp"
#include "core/plan_system.hpp"
#include "test_util.hpp"

using namespace create;
using testutil::expectIdentical;

namespace {

MineSystem&
mineSys()
{
    static MineSystem s(/*verbose=*/false);
    return s;
}

ManipSystem&
manipSys()
{
    static ManipSystem s("openvla", "octo", /*verbose=*/false);
    return s;
}

/** evaluate() on `threads` threads, then back to the serial default. */
TaskStats
evaluateOn(EmbodiedSystem& sys, int threads, int taskId,
           const CreateConfig& cfg, int reps)
{
    sys.setEvalThreads(threads);
    const TaskStats s = sys.evaluate(taskId, cfg, reps);
    sys.setEvalThreads(1);
    return s;
}

} // namespace

TEST(ParallelEval, EvaluateViaSystemThreadsMatchesSerial)
{
    // Injection active so the fault-injection RNG streams matter: the
    // uniform bit-flip model, and the voltage-derived timing-error model.
    CreateConfig uniformAd = CreateConfig::uniform(5e-4);
    uniformAd.anomalyDetection = true;
    CreateConfig voltageAd = CreateConfig::atVoltage(0.72, 0.90);
    voltageAd.anomalyDetection = true;
    struct Input
    {
        MineTask task;
        CreateConfig cfg;
        int reps;
    };
    const Input inputs[] = {
        {MineTask::Stone, CreateConfig::uniform(5e-4), 5},
        {MineTask::Wooden, uniformAd, 6},
        {MineTask::Wooden, voltageAd, 6},
    };
    for (const Input& in : inputs) {
        const int task = static_cast<int>(in.task);
        expectIdentical(evaluateOn(mineSys(), 1, task, in.cfg, in.reps),
                        evaluateOn(mineSys(), 4, task, in.cfg, in.reps));
    }
}

TEST(ParallelEval, ManipSerialVs4ThreadsBitIdentical)
{
    // Planner-side CREATE point: AD+WR at an aggressive planner voltage.
    CreateConfig cfg = CreateConfig::atVoltage(0.72, 0.90);
    cfg.anomalyDetection = true;
    cfg.weightRotation = true;
    const int task = static_cast<int>(ManipTask::Wine);
    expectIdentical(evaluateOn(manipSys(), 1, task, cfg, 6),
                    evaluateOn(manipSys(), 4, task, cfg, 6));
}

TEST(ParallelEval, EpisodeRngStreamsAreIsolated)
{
    // Every episode must depend only on its own (task, config, seed):
    // running it alone, in reverse order, yields the identical
    // EpisodeResult to running it among others on 4 threads -- no RNG
    // state leaks between episodes, and results come back in job order.
    CreateConfig uniform = CreateConfig::uniform(5e-4);
    uniform.anomalyDetection = true;
    CreateConfig voltage = CreateConfig::atVoltage(0.72, 0.90);
    voltage.weightRotation = true;
    const int wooden = static_cast<int>(MineTask::Wooden);
    const int stone = static_cast<int>(MineTask::Stone);

    // One cell's contiguous seeds, as evaluate() submits them ...
    std::vector<EpisodeJob> contiguous;
    for (std::uint64_t seed = 4242; seed < 4246; ++seed)
        contiguous.push_back({wooden, &uniform, seed});
    // ... and a shuffled mix of two tasks, two configs and seeds with
    // gaps, as a campaign wave interleaves its ledgers.
    std::vector<EpisodeJob> mixed;
    for (const int task : {wooden, stone})
        for (const CreateConfig* cfg : {&uniform, &voltage})
            for (const std::uint64_t seed : {7ull, 4242ull, 90001ull})
                mixed.push_back({task, cfg, seed});
    std::shuffle(mixed.begin(), mixed.end(), std::mt19937(14));

    for (const std::vector<EpisodeJob>* jobs : {&contiguous, &mixed}) {
        const auto threaded = mineSys().runJobs(*jobs, /*threads=*/4);
        ASSERT_EQ(threaded.size(), jobs->size());
        for (std::size_t i = jobs->size(); i-- > 0;) {
            const EpisodeJob& job = (*jobs)[i];
            SCOPED_TRACE(i);
            expectIdentical(mineSys().runEpisode(job.taskId, job.seed,
                                                 *job.cfg),
                            threaded[i]);
        }
    }
}

TEST(ParallelEval, ThreadedJobsMustShareOneWidth)
{
    // Freezing is per-width state on the shared models: two widths in one
    // threaded fan-out would re-freeze under running episodes.
    const CreateConfig int8 = CreateConfig::clean();
    CreateConfig int4 = CreateConfig::clean();
    int4.bits = QuantBits::Int4;
    const std::vector<EpisodeJob> jobs{{0, &int8, 1}, {0, &int4, 2}};
    EXPECT_THROW(mineSys().runJobs(jobs, /*threads=*/2),
                 std::invalid_argument);
}

TEST(ParallelEval, RepeatedParallelRunsAreDeterministic)
{
    CreateConfig cfg = CreateConfig::uniform(5e-4);
    const int task = static_cast<int>(MineTask::Wooden);
    expectIdentical(evaluateOn(mineSys(), 3, task, cfg, 5),
                    evaluateOn(mineSys(), 3, task, cfg, 5));
}

TEST(EmbodiedSystem, GenericInterfaceCoversBothPlatforms)
{
    EmbodiedSystem& mine = mineSys();
    EXPECT_STREQ(mine.platformName(), "jarvis-1");
    EXPECT_EQ(mine.numTasks(), kNumMineTasks);
    EXPECT_STREQ(mine.taskName(static_cast<int>(MineTask::Wooden)),
                 "wooden");

    EmbodiedSystem& manip = manipSys();
    EXPECT_STREQ(manip.platformName(), "openvla+octo");
    EXPECT_EQ(manip.numTasks(), kNumManipTasks);
    EXPECT_STREQ(manip.taskName(static_cast<int>(ManipTask::Wine)), "wine");

    // Both run the same deployment configuration through the same entry
    // point and produce sane aggregates.
    const CreateConfig cfg = CreateConfig::clean();
    for (EmbodiedSystem* sys : {&mine, &manip}) {
        const TaskStats s = sys->evaluate(0, cfg, 2);
        EXPECT_EQ(s.episodes, 2);
        EXPECT_GE(s.successRate, 0.0);
        EXPECT_LE(s.successRate, 1.0);
        EXPECT_GT(s.avgComputeJ, 0.0);
    }
}

TEST(ParallelEval, CustomAgentConfigReachesEveryThread)
{
    // A customized AgentConfig must govern episodes on every thread, or
    // the threaded path silently runs different episode limits.
    MineSystem sys(/*verbose=*/false);
    sys.agentConfig().subtaskBudget = 120; // non-default
    CreateConfig cfg = CreateConfig::uniform(2e-3);
    const int task = static_cast<int>(MineTask::Wooden);
    expectIdentical(evaluateOn(sys, 1, task, cfg, 4),
                    evaluateOn(sys, 4, task, cfg, 4));
}
