/** @file Tests for the navigation platform family: NavWorld determinism
 *  and dynamics, the A* expert, the PlatformRegistry round-trip (every
 *  platform builds, runs, and is priced at the workloads its catalogue
 *  entry lists), NavSystem (PlanSystem<NavFamily>) serial-vs-parallel
 *  bit-identity, and CREATE protection efficacy on nav missions at
 *  aggressive voltage. */

#include <gtest/gtest.h>

#include "core/plan_system.hpp"
#include "core/platform_registry.hpp"
#include "env/nav_expert.hpp"
#include "test_util.hpp"

using namespace create;
using testutil::expectIdentical;

namespace {

NavSystem&
navSys()
{
    static NavSystem s("navllama", "pathrt", /*verbose=*/false);
    return s;
}

} // namespace

TEST(NavWorld, DeterministicTrajectory)
{
    // Same seed => bit-identical world layout, trajectory, and
    // observations under the deterministic expert.
    for (const auto task : {NavTask::Patrol, NavTask::Canyon}) {
        NavWorld a(task, 71);
        NavWorld b(task, 71);
        EXPECT_EQ(a.wallX(), b.wallX());
        EXPECT_EQ(a.gapY(), b.gapY());
        EXPECT_EQ(a.homeX(), b.homeX());
        int steps = 0;
        for (const auto st : navGoldPlan(task)) {
            a.setActiveSubtask(st);
            b.setActiveSubtask(st);
            while (!a.subtaskComplete() && steps < NavWorld::kStepCap) {
                const NavObs oa = a.observe();
                const NavObs ob = b.observe();
                ASSERT_EQ(oa.spatial, ob.spatial);
                ASSERT_EQ(oa.state, ob.state);
                const NavAction act = NavExpert::act(a);
                ASSERT_EQ(act, NavExpert::act(b));
                a.step(act);
                b.step(act);
                ASSERT_EQ(a.x(), b.x());
                ASSERT_EQ(a.y(), b.y());
                ASSERT_EQ(a.z(), b.z());
                ASSERT_EQ(a.battery(), b.battery());
                ++steps;
            }
        }
        EXPECT_EQ(a.taskComplete(), b.taskComplete());
    }
}

TEST(NavWorld, WallPassableOnlyAtTopExceptGap)
{
    NavWorld w(NavTask::Corridor, 5);
    for (int y = 0; y < NavWorld::kSize; ++y) {
        if (y == w.gapY()) {
            EXPECT_EQ(w.heightAt(w.wallX(), y), 0);
            EXPECT_TRUE(w.open(w.wallX(), y, 0));
        } else {
            EXPECT_EQ(w.heightAt(w.wallX(), y), 2);
            EXPECT_FALSE(w.open(w.wallX(), y, 1));
            EXPECT_TRUE(w.open(w.wallX(), y, 2));
        }
    }
}

TEST(NavWorld, HoldChainResetsOnInterruption)
{
    NavWorld w(NavTask::Inspect, 8);
    w.setActiveSubtask(NavSubtask::TransitA);
    int steps = 0;
    while (!w.subtaskComplete() && steps++ < NavWorld::kStepCap)
        w.step(NavExpert::act(w));
    ASSERT_TRUE(w.subtaskComplete());
    // The inspect station is waypoint A, where the drone now hovers.
    ASSERT_EQ(w.x(), w.stationX());
    ASSERT_EQ(w.y(), w.stationY());
    w.setActiveSubtask(NavSubtask::HoldStation);
    w.step(NavAction::Hover);
    w.step(NavAction::Hover);
    EXPECT_EQ(w.holdProgress(), 2);
    w.step(NavAction::Ascend); // interruption (stays over the station)
    EXPECT_EQ(w.holdProgress(), 0);
    w.step(NavAction::Hover);
    w.step(NavAction::Hover);
    w.step(NavAction::Hover);
    EXPECT_TRUE(w.held());
    EXPECT_TRUE(w.taskComplete());
}

TEST(NavWorld, BatteryGroundsTheDrone)
{
    NavWorld w(NavTask::Delivery, 9);
    for (int i = 0; i < NavWorld::kBattery; ++i)
        w.step(NavAction::Hover);
    EXPECT_LE(w.battery(), 0);
    const int x = w.x(), y = w.y(), z = w.z();
    for (const auto a : {NavAction::MoveE, NavAction::MoveW,
                         NavAction::Ascend, NavAction::Descend}) {
        w.step(a);
        EXPECT_EQ(w.x(), x);
        EXPECT_EQ(w.y(), y);
        EXPECT_EQ(w.z(), z);
    }
}

TEST(NavWorld, ObservationDims)
{
    NavWorld w(NavTask::Survey, 10);
    const NavObs obs = w.observe();
    EXPECT_EQ(static_cast<int>(obs.spatial.size()), NavObs::spatialDim());
    EXPECT_EQ(static_cast<int>(obs.state.size()), NavObs::stateDim());
}

TEST(NavWorld, RenderImage)
{
    NavWorld w(NavTask::Rooftop, 11);
    const Tensor img = w.renderImage(24);
    EXPECT_EQ(img.dim(0), 3);
    EXPECT_EQ(img.dim(1), 24);
    for (std::int64_t i = 0; i < img.numel(); ++i) {
        EXPECT_GE(img[i], 0.0f);
        EXPECT_LE(img[i], 1.0f);
    }
}

TEST(NavWorld, GoldPlansFitPlannerWindow)
{
    for (int t = 0; t < kNumNavTasks; ++t) {
        const auto plan = navGoldPlan(static_cast<NavTask>(t));
        EXPECT_FALSE(plan.empty());
        EXPECT_LE(plan.size(), 5u);
    }
}

/** Property: the A* expert solves all ten missions. */
class NavExpertSolves : public ::testing::TestWithParam<int>
{
};

TEST_P(NavExpertSolves, FullPlan)
{
    const auto task = static_cast<NavTask>(GetParam());
    int successes = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        NavWorld w(task, seed * 131);
        int steps = 0;
        for (const auto st : navGoldPlan(task)) {
            w.setActiveSubtask(st);
            while (!w.subtaskComplete() && steps < NavWorld::kStepCap) {
                w.step(NavExpert::act(w));
                ++steps;
            }
            if (!w.subtaskComplete())
                break;
        }
        if (w.taskComplete())
            ++successes;
    }
    EXPECT_GE(successes, 3) << navTaskName(task);
}

INSTANTIATE_TEST_SUITE_P(AllMissions, NavExpertSolves,
                         ::testing::Range(0, kNumNavTasks),
                         [](const auto& info) {
                             return navTaskName(
                                 static_cast<NavTask>(info.param));
                         });

TEST(PlatformRegistry, CataloguesAllThreeFamilies)
{
    const auto& reg = PlatformRegistry::instance();
    int families[3] = {0, 0, 0};
    for (const auto& p : reg.all()) {
        if (p.envFamily == "minecraft")
            ++families[0];
        else if (p.envFamily == "manipulation")
            ++families[1];
        else if (p.envFamily == "navigation")
            ++families[2];
    }
    EXPECT_GE(families[0], 1);
    EXPECT_GE(families[1], 2);
    EXPECT_GE(families[2], 2);
}

TEST(PlatformRegistry, SelectFiltersAndRejectsUnknown)
{
    const auto& reg = PlatformRegistry::instance();
    EXPECT_EQ(reg.select("").size(), reg.all().size());
    const auto two = reg.select("navllama+pathrt,jarvis-1");
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0]->name, "navllama+pathrt");
    EXPECT_EQ(two[1]->name, "jarvis-1");
    EXPECT_THROW(reg.select("no-such-platform"), std::invalid_argument);
    EXPECT_THROW(reg.make("no-such-platform"), std::invalid_argument);
}

TEST(PlatformRegistry, EveryPlatformConstructsAndRunsOneEpisode)
{
    // The round-trip that keeps the catalogue honest: each registered
    // factory must build a working system whose name matches its key,
    // whose energy model prices the workloads the catalogue lists, and
    // which runs an episode + a 2-rep evaluation through the facade.
    const auto& reg = PlatformRegistry::instance();
    for (const auto& info : reg.all()) {
        auto sys = reg.make(info.name, /*verbose=*/false);
        ASSERT_NE(sys, nullptr) << info.name;
        EXPECT_STREQ(sys->platformName(), info.name.c_str());
        const PaperEnergyModel& energy = sys->energyModel();
        EXPECT_EQ(info.plannerName, energy.plannerWorkload().name)
            << info.name;
        EXPECT_EQ(info.controllerName, energy.controllerWorkload().name)
            << info.name;
        EXPECT_EQ(info.plannerGops, energy.plannerWorkload().paperGops)
            << info.name;
        EXPECT_EQ(info.controllerGops,
                  energy.controllerWorkload().paperGops)
            << info.name;
        EXPECT_GT(sys->numTasks(), 0);
        ASSERT_FALSE(info.plannerTasks.empty()) << info.name;
        for (const int t : info.plannerTasks) {
            ASSERT_GE(t, 0);
            ASSERT_LT(t, sys->numTasks());
        }
        const int task = info.plannerTasks.front();
        const EpisodeResult r =
            sys->runEpisode(task, 2024, CreateConfig::clean());
        EXPECT_GT(r.steps, 0) << info.name;
        EXPECT_EQ(r.plannerInvocations, 1) << info.name;
        const TaskStats s =
            sys->evaluate(task, CreateConfig::clean(), 2);
        EXPECT_EQ(s.episodes, 2);
        EXPECT_GE(s.successRate, 0.0);
        EXPECT_LE(s.successRate, 1.0);
        EXPECT_GT(s.avgComputeJ, 0.0) << info.name;
    }
}

TEST(NavSystem, PlannerDecodesGoldPlansClean)
{
    ComputeContext ctx(7);
    ctx.domain = Domain::Planner;
    for (int t = 0; t < kNumNavTasks; ++t) {
        const auto tokens = navSys().planner(false).inferPlan(t, 0, ctx);
        const auto plan =
            platforms::decodePlan<platforms::NavFamily>(tokens);
        EXPECT_EQ(plan, navGoldPlan(static_cast<NavTask>(t)))
            << navTaskName(static_cast<NavTask>(t));
    }
}

TEST(NavSystem, EvaluateViaSystemThreadsMatchesSerial)
{
    CreateConfig uniformAd = CreateConfig::uniform(5e-4);
    uniformAd.anomalyDetection = true;
    // Planner-side CREATE point: AD+WR at an aggressive planner voltage,
    // so fault-injection RNG streams and the rotated planner both matter.
    CreateConfig adwr = CreateConfig::atVoltage(0.72, 0.90);
    adwr.anomalyDetection = true;
    adwr.weightRotation = true;
    struct Input
    {
        NavTask task;
        CreateConfig cfg;
        int reps;
    };
    const Input inputs[] = {
        {NavTask::Delivery, uniformAd, 5},
        {NavTask::Patrol, adwr, 6},
    };
    for (const Input& in : inputs) {
        navSys().setEvalThreads(1);
        const TaskStats serial = navSys().evaluate(in.task, in.cfg, in.reps);
        navSys().setEvalThreads(4);
        const TaskStats parallel =
            navSys().evaluate(in.task, in.cfg, in.reps);
        navSys().setEvalThreads(1);
        expectIdentical(serial, parallel);
    }
}

TEST(NavSystem, CreateRecoversSuccessAtAggressiveVoltage)
{
    // The acceptance property of the third platform family: at an
    // aggressive operating point the unprotected stack collapses and the
    // CREATE techniques recover most of the clean success rate.
    const int reps = 12;
    NavSystem& sys = navSys();
    sys.setEvalThreads(1);

    CreateConfig unprot = CreateConfig::atVoltage(0.72, 0.80);
    CreateConfig prot = CreateConfig::fullCreate(
        0.72, EntropyVoltagePolicy::preset('E'));

    int cleanOk = 0, unprotOk = 0, protOk = 0;
    for (const auto task : {NavTask::Delivery, NavTask::Patrol,
                            NavTask::Corridor}) {
        cleanOk += sys.evaluate(task, CreateConfig::clean(), reps).successes;
        unprotOk += sys.evaluate(task, unprot, reps).successes;
        protOk += sys.evaluate(task, prot, reps).successes;
    }
    EXPECT_GT(protOk, unprotOk);
    EXPECT_GE(protOk, cleanOk / 2);
    EXPECT_LT(unprotOk, cleanOk);
}
