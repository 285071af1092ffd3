/**
 * @file
 * The traced replay: per-layer numbers for one finished campaign, timed
 * from this file around the calls it makes into each layer's public
 * functions (no instrumentation inside the program).
 *
 *  1. store:   openStoreBackend + load of the campaign store; a replay of
 *              its records through StoreBackend::flush in the campaign's
 *              flush-size batches into a fresh binlog store.
 *  2. sweep:   platform construction via SweepRunner::system, and
 *              EmbodiedSystem::prepare over the distinct configs.
 *  3. episode: every campaign episode again, serially, through
 *              EmbodiedSystem::runEpisode; each must equal its campaign
 *              record bit for bit (wallMs and worker stamps aside).
 *  4. agent:   the first episodes (about 24 in all) of the Mine ledgers through
 *              EmbodiedAgent::runEpisode with benchmark-owned AgentHooks
 *              (forwarding to VoltageScaler) that timestamp the controller
 *              step, the VS hook and the gap between steps, plus an
 *              IntGemmSink that records each GEMM's shape and forwards to
 *              create::intGemm (bit-identical by the sink contract). The
 *              recorded actions then replay through MineWorld::step.
 *  5. kernels: the models' inference entry points and the public kernels
 *              (faultyLinear via Linear::infer, intGemm, quantizeInto,
 *              BitFlipInjector::inject, attention, LayerNorm) on the shapes
 *              and bit-rate vectors step 4 recorded, weighted by its counts.
 */

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>

#include "bench.hpp"
#include "common/metrics.hpp"
#include "common/store_keys.hpp"
#include "core/create_system.hpp"
#include "core/store_backend.hpp"
#include "core/voltage_policy.hpp"
#include "fault/injector.hpp"
#include "hw/faulty_gemm.hpp"
#include "nn/attention.hpp"
#include "nn/transformer.hpp"

using namespace create;

namespace perfbench {

namespace {

/** Record fields that legitimately differ between runs of one episode. */
bool
volatileField(const std::string& key)
{
    return key == "wallMs" || key == "by";
}

/** Bitwise equality of two episode records, volatile fields aside. */
bool
sameRecord(const JsonRecord& a, const JsonRecord& b)
{
    const auto nums = [](const JsonRecord& r) {
        std::vector<std::pair<std::string, double>> v;
        for (const auto& kv : r.numbers)
            if (!volatileField(kv.first))
                v.push_back(kv);
        std::sort(v.begin(), v.end(), [](const auto& x, const auto& y) {
            return x.first < y.first;
        });
        return v;
    };
    const auto strs = [](const JsonRecord& r) {
        std::vector<std::pair<std::string, std::string>> v;
        for (const auto& kv : r.strings)
            if (!volatileField(kv.first))
                v.push_back(kv);
        std::sort(v.begin(), v.end());
        return v;
    };
    const auto na = nums(a), nb = nums(b);
    if (na.size() != nb.size() || strs(a) != strs(b))
        return false;
    for (std::size_t i = 0; i < na.size(); ++i)
        if (na[i].first != nb[i].first ||
            std::memcmp(&na[i].second, &nb[i].second, sizeof(double)) != 0)
            return false;
    return true;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** One GEMM shape seen by a recording sink, with its call count. */
struct Shape
{
    std::int64_t m = 0, k = 0, n = 0;
    std::uint64_t calls = 0;
};

/** IntGemmSink that records shapes and forwards to create::intGemm. */
class ShapeSink : public IntGemmSink
{
  public:
    explicit ShapeSink(std::vector<Shape>& shapes) : shapes_(shapes) {}

    void gemm(const std::int8_t* xq, std::int64_t m, std::int64_t k,
              const std::int8_t* wq, std::int64_t n,
              std::int32_t* acc) override
    {
        intGemm(xq, m, k, wq, n, acc);
        for (Shape& s : shapes_)
            if (s.m == m && s.k == k && s.n == n) {
                ++s.calls;
                return;
            }
        shapes_.push_back({m, k, n, 1});
    }

  private:
    std::vector<Shape>& shapes_;
};

/** One recorded controller step: where, under which subtask, what action. */
struct StepRecord
{
    std::uint64_t worldStep = 0;
    Subtask subtask;
    Action action = Action::Noop;
};

/** Timestamping AgentHooks forwarding to an optional VoltageScaler. */
class TimingHooks : public AgentHooks
{
  public:
    explicit TimingHooks(AgentHooks* vs) : vs_(vs) {}

    void beforeController(const MineWorld& w, std::uint64_t step,
                          ComputeContext& ctx, EpisodeResult& r) override
    {
        const double t0 = monoNow();
        if (lastAfter_ > 0.0)
            gapS += t0 - lastAfter_;
        if (vs_) {
            vs_->beforeController(w, step, ctx, r);
            const double t1 = monoNow();
            vsS += t1 - t0;
            beforeEnd_ = t1;
        } else {
            beforeEnd_ = t0;
        }
    }

    void afterLogits(const MineWorld& w, std::uint64_t step,
                     const std::vector<float>& logits, Action a) override
    {
        controllerS += monoNow() - beforeEnd_;
        ++steps;
        actions.push_back({w.stepsTaken(), w.activeSubtask(), a});
        if (vs_)
            vs_->afterLogits(w, step, logits, a);
        lastAfter_ = monoNow();
    }

    double controllerS = 0.0, vsS = 0.0, gapS = 0.0;
    long long steps = 0;
    std::vector<StepRecord> actions;

  private:
    AgentHooks* vs_;
    double beforeEnd_ = 0.0;
    double lastAfter_ = 0.0;
};

/** A ledger of the workload: its fingerprint and the cell that defines it. */
struct LedgerRef
{
    std::string fp;
    SweepCell cell;
};

/** Time `fn` repeated until at least `minS` seconds; seconds per call. */
template <class F>
double
perCall(F&& fn, int minIters, double minS = 2e-3)
{
    fn(); // warm caches and workspaces
    int iters = 0;
    const double t0 = monoNow();
    double t = t0;
    while (iters < minIters || t - t0 < minS) {
        fn();
        ++iters;
        t = monoNow();
    }
    return (t - t0) / iters;
}

Tensor
randomTensor(std::int64_t rows, std::int64_t cols, Rng& rng)
{
    Tensor t({rows, cols});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    return t;
}

} // namespace

int
runReplay(int argc, char** argv)
{
    const WorkloadSpec w = workloadByName(argValue(argc, argv, "--workload"));
    const std::uint64_t seed0 =
        std::stoull(argValue(argc, argv, "--seed0", "1000"));
    const std::string store = argValue(argc, argv, "--store");
    const std::string scratch = argValue(argc, argv, "--scratch");
    const std::string tracePath = argValue(argc, argv, "--trace");
    Tracer tr(!tracePath.empty());
    JsonLine out;
    out.str("role", "replay");

    // --- 1. store load ---------------------------------------------------
    std::vector<JsonRecord> recs;
    StoreLoadInfo info;
    std::vector<double> loadMs;
    for (int i = 0; i < 3; ++i) {
        const double t0 = monoNow();
        auto backend =
            openStoreBackend(store, StoreFormat::Binlog, "perfbench-replay");
        recs.clear();
        info = StoreLoadInfo{};
        if (!backend->load(recs, &info, false))
            throw std::runtime_error("no store at " + store);
        const double t1 = monoNow();
        tr.add("store.load", "store_backend", t0, t1);
        loadMs.push_back((t1 - t0) * 1e3);
    }
    std::map<std::string, const JsonRecord*> episodesByKey;
    for (const JsonRecord& r : recs)
        if (sweepEpisodeIndex(r.name) >= 0)
            episodesByKey[r.name] = &r;
    const double nStored = static_cast<double>(episodesByKey.size());
    out.num("store_load_ms", median(loadMs))
        .num("store_bytes", static_cast<double>(info.totalBytes))
        .num("stored_episodes", nStored);

    // Flush replay: the episode records in key order, in flush-size batches.
    std::vector<double> flushUs;
    for (int rep = 0; rep < 5; ++rep) {
        const std::string dir =
            scratch + "/flush-replay-" + std::to_string(rep);
        std::filesystem::remove_all(dir);
        auto backend =
            openStoreBackend(dir, StoreFormat::Binlog, "perfbench-flush");
        std::map<std::string, JsonRecord> full;
        std::vector<JsonRecord> batch;
        double sum = 0.0;
        int batches = 0;
        const auto flush = [&]() {
            std::string err;
            const double t0 = monoNow();
            if (!backend->flush(full, batch, &err))
                throw std::runtime_error("flush replay: " + err);
            const double t1 = monoNow();
            tr.add("store.flush", "store_backend", t0, t1);
            sum += t1 - t0;
            ++batches;
            batch.clear();
        };
        for (const auto& [key, rec] : episodesByKey) {
            full[key] = *rec;
            batch.push_back(*rec);
            if (static_cast<int>(batch.size()) >= w.flushEvery)
                flush();
        }
        if (!batch.empty())
            flush();
        flushUs.push_back(batches ? sum / batches * 1e6 : 0.0);
        std::filesystem::remove_all(dir);
    }
    out.num("flush_us_per_batch", median(flushUs));

    // --- 2. platform construction and prepare ---------------------------
    const std::vector<SweepCell> cells = workloadCells(w, seed0, 0);
    std::vector<LedgerRef> ledgers;
    std::set<std::string> seen;
    std::vector<std::string> platforms;
    for (const SweepCell& c : cells) {
        const std::string fp = sweepFingerprint(c);
        if (seen.insert(fp).second)
            ledgers.push_back({fp, c});
        if (std::find(platforms.begin(), platforms.end(), c.platform) ==
            platforms.end())
            platforms.push_back(c.platform);
    }
    SweepRunner sweep;
    double modelLoadMs = 0.0;
    for (const std::string& p : platforms) {
        const double t0 = monoNow();
        sweep.system(p);
        const double t1 = monoNow();
        tr.add("sweep.system " + p, "sweep", t0, t1);
        modelLoadMs += (t1 - t0) * 1e3;
    }
    double prepareMs = 0.0;
    for (const LedgerRef& l : ledgers) {
        const double t0 = monoNow();
        sweep.system(l.cell.platform).prepare(l.cell.cfg);
        const double t1 = monoNow();
        tr.add("prepare", "sweep", t0, t1, -1, l.fp);
        prepareMs += (t1 - t0) * 1e3;
    }
    out.num("model_load_ms", modelLoadMs).num("prepare_ms", prepareMs);

    // --- 3. serial episode replay ----------------------------------------
    MetricsRegistry& reg = MetricsRegistry::tls();
    std::vector<double> epMs;
    double replayS = 0.0;
    long long steps = 0, plannerCalls = 0, mismatches = 0, missing = 0;
    for (const LedgerRef& l : ledgers) {
        EmbodiedSystem& sys = sweep.system(l.cell.platform);
        sys.prepare(l.cell.cfg);
        for (int i = 0; i < w.reps; ++i) {
            const std::string key = sweepEpisodeKey(l.fp, i);
            reg.beginEpisode();
            const double t0 = monoNow();
            const EpisodeResult r = sys.runEpisode(
                l.cell.taskId, l.cell.seed0 + static_cast<std::uint64_t>(i),
                l.cell.cfg);
            const double t1 = monoNow();
            const EpisodeRecord er{r, sys.energyModel().episodeComputeJ(r),
                                   reg.endEpisode((t1 - t0) * 1e3)};
            tr.add("episode", "embodied_system", t0, t1, i, l.fp);
            replayS += t1 - t0;
            epMs.push_back((t1 - t0) * 1e3);
            steps += r.steps;
            plannerCalls += r.plannerInvocations;
            const auto it = episodesByKey.find(key);
            if (it == episodesByKey.end())
                ++missing;
            else if (!sameRecord(episodeToRecord(key, er), *it->second))
                ++mismatches;
        }
    }
    const double replayed = static_cast<double>(epMs.size());
    out.num("replayed", replayed)
        .num("replay_mismatches", static_cast<double>(mismatches))
        .num("replay_missing", static_cast<double>(missing))
        .num("replay_s", replayS)
        .num("replay_episode_ms_p50", median(epMs))
        .num("steps", static_cast<double>(steps))
        .num("planner_calls", static_cast<double>(plannerCalls));

    // --- 4. Mine agent replay with timing hooks --------------------------
    std::vector<Shape> plannerShapes, controllerShapes;
    // Per ledger: its GEMM shapes per context kind, for the inject sweep.
    std::map<std::string, std::pair<std::vector<Shape>, std::vector<Shape>>>
        ledgerShapes;
    double controllerS = 0.0, vsS = 0.0, gapS = 0.0, worldS = 0.0;
    long long hookSteps = 0, vsSteps = 0, worldSteps = 0, hookEpisodes = 0,
              hookMismatches = 0;
    MineSystem* mine = nullptr;
    // About 24 hooked episodes per workload, spread over its Mine ledgers.
    const int mineCount = static_cast<int>(
        std::count_if(ledgers.begin(), ledgers.end(), [](const LedgerRef& l) {
            return l.cell.platform == "jarvis-1";
        }));
    const int hookEps = std::max(1, 24 / std::max(1, mineCount));
    for (const LedgerRef& l : ledgers) {
        if (l.cell.platform != "jarvis-1")
            continue;
        mine = &dynamic_cast<MineSystem&>(sweep.system("jarvis-1"));
        mine->prepare(l.cell.cfg);
        auto& [ps, cs] = ledgerShapes[l.fp];
        ShapeSink pSink(ps), cSink(cs);
        for (int i = 0; i < std::min(hookEps, w.reps); ++i) {
            // MineSystem::runEpisode, step for step, with hooks and sinks.
            const std::uint64_t seed =
                l.cell.seed0 + static_cast<std::uint64_t>(i);
            const CreateConfig& cfg = l.cell.cfg;
            ComputeContext plannerCtx(seed ^ 0x9A9A1ull);
            ComputeContext controllerCtx(seed ^ 0x7B7B2ull);
            plannerCtx.gemmSink = &pSink;
            controllerCtx.gemmSink = &cSink;
            cfg.applyTo(plannerCtx, /*isPlanner=*/true);
            cfg.applyTo(controllerCtx, /*isPlanner=*/false);
            EmbodiedAgent agent(mine->planner(cfg.weightRotation),
                                mine->controller(), mine->agentConfig());
            std::unique_ptr<VoltageScaler> scaler;
            if (cfg.voltageScaling) {
                scaler = std::make_unique<VoltageScaler>(
                    mine->predictor(), cfg.policy, cfg.vsInterval);
                if (cfg.mode != InjectionMode::None && cfg.injectController)
                    controllerCtx.setVoltageMode();
            }
            TimingHooks hooks(scaler.get());
            reg.beginEpisode();
            const double t0 = monoNow();
            const EpisodeResult r =
                agent.runEpisode(static_cast<MineTask>(l.cell.taskId), seed,
                                 plannerCtx, controllerCtx, &hooks);
            const double t1 = monoNow();
            const EpisodeRecord er{r, mine->energyModel().episodeComputeJ(r),
                                   reg.endEpisode((t1 - t0) * 1e3)};
            tr.add("agent.episode", "agent", t0, t1, i, l.fp);
            const std::string key = sweepEpisodeKey(l.fp, i);
            const auto it = episodesByKey.find(key);
            if (it == episodesByKey.end() ||
                !sameRecord(episodeToRecord(key, er), *it->second))
                ++hookMismatches;
            ++hookEpisodes;
            controllerS += hooks.controllerS;
            gapS += hooks.gapS;
            hookSteps += hooks.steps;
            if (scaler) {
                vsS += hooks.vsS;
                vsSteps += hooks.steps;
            }

            // MineWorld::step over the recorded actions.
            MineWorld world({mine->agentConfig().worldSize,
                             mine->agentConfig().worldSize,
                             static_cast<MineTask>(l.cell.taskId), seed});
            bool haveSub = false;
            Subtask cur;
            const double w0 = monoNow();
            for (const StepRecord& s : hooks.actions) {
                while (world.stepsTaken() < s.worldStep)
                    world.step(Action::Noop);
                if (!haveSub || s.subtask.type != cur.type ||
                    s.subtask.count != cur.count) {
                    world.setActiveSubtask(s.subtask);
                    cur = s.subtask;
                    haveSub = true;
                }
                world.step(s.action);
            }
            const double w1 = monoNow();
            tr.add("mineworld.replay", "env", w0, w1, i, l.fp);
            worldS += w1 - w0;
            worldSteps += static_cast<long long>(world.stepsTaken());
        }
        for (const Shape& s : ps) {
            auto it = std::find_if(
                plannerShapes.begin(), plannerShapes.end(), [&](const Shape& x) {
                    return x.m == s.m && x.k == s.k && x.n == s.n;
                });
            if (it == plannerShapes.end())
                plannerShapes.push_back(s);
            else
                it->calls += s.calls;
        }
        for (const Shape& s : cs) {
            auto it = std::find_if(controllerShapes.begin(),
                                   controllerShapes.end(), [&](const Shape& x) {
                                       return x.m == s.m && x.k == s.k &&
                                              x.n == s.n;
                                   });
            if (it == controllerShapes.end())
                controllerShapes.push_back(s);
            else
                it->calls += s.calls;
        }
    }
    const auto perStepUs = [](double s, long long n) {
        return n > 0 ? s / static_cast<double>(n) * 1e6 : 0.0;
    };
    out.num("hook_episodes", static_cast<double>(hookEpisodes))
        .num("hook_mismatches", static_cast<double>(hookMismatches))
        .num("controller_us_per_step", perStepUs(controllerS, hookSteps))
        .num("vs_us_per_step", perStepUs(vsS, vsSteps))
        .num("gap_us_per_step", perStepUs(gapS, hookSteps))
        .num("mineworld_step_us", perStepUs(worldS, worldSteps));

    if (!mine)
        throw std::runtime_error("workload has no jarvis-1 ledger");

    // --- 5. model entry points and kernels -------------------------------
    Rng rng(0x5EEDB0B5ull);
    const double k0 = monoNow();
    MineWorld probeWorld({mine->agentConfig().worldSize,
                          mine->agentConfig().worldSize, MineTask::Wooden,
                          seed0});
    const MineObs obs = probeWorld.observe();
    EntropyPredictor& pred = mine->predictor();
    const Tensor image = probeWorld.renderImage(pred.config().imgRes,
                                                pred.config().viewRadius);
    const auto prompt =
        predictorPrompt(0, kNumSubtaskTypes, obs.spatial, obs.state,
                        pred.config().promptDim);
    ComputeContext predCtx;
    predCtx.domain = Domain::Predictor;
    const double predictorUs =
        perCall([&] { pred.infer(image, prompt, predCtx); }, 50) * 1e6;

    double plannerUs = 0.0, controllerUs = 0.0;
    int mineLedgers = 0;
    // Kernel sums weighted by the recorded per-ledger GEMM counts.
    double flSum = 0.0, flCalls = 0.0, injSum = 0.0, injCalls = 0.0;
    for (const LedgerRef& l : ledgers) {
        const auto it = ledgerShapes.find(l.fp);
        if (it == ledgerShapes.end())
            continue;
        ++mineLedgers;
        const CreateConfig& cfg = l.cell.cfg;
        mine->prepare(cfg);
        PlannerModel& planner = mine->planner(cfg.weightRotation);
        ControllerModel& controller = mine->controller();
        for (const bool isPlanner : {true, false}) {
            ComputeContext ctx(isPlanner ? 0x9A9A1ull : 0x7B7B2ull);
            cfg.applyTo(ctx, isPlanner);
            ctx.domain = isPlanner ? Domain::Planner : Domain::Controller;
            if (isPlanner)
                plannerUs += perCall([&] {
                    planner.inferLogits(l.cell.taskId, 0, ctx);
                }, 10) * 1e6;
            else
                controllerUs += perCall([&] {
                    controller.inferLogits(0, obs.spatial, obs.state, ctx);
                }, 20) * 1e6;

            // The model's reachable projections, by (in, out) shape.
            std::map<std::pair<std::int64_t, std::int64_t>, nn::Linear*> lin;
            if (isPlanner) {
                for (int b = 0; b < planner.config().layers; ++b) {
                    nn::LlamaBlock& blk = planner.block(b);
                    for (nn::Linear* x :
                         {&blk.attn().q(), &blk.attn().o(), &blk.gate(),
                          &blk.down()})
                        lin.emplace(std::make_pair(x->inDim(), x->outDim()),
                                    x);
                }
                lin.emplace(std::make_pair(planner.head().inDim(),
                                           planner.head().outDim()),
                            &planner.head());
            } else {
                for (int b = 0; b < controller.config().layers; ++b) {
                    nn::PostNormBlock& blk = controller.block(b);
                    for (nn::Linear* x :
                         {&blk.attn().q(), &blk.fc1(), &blk.fc2()})
                        lin.emplace(std::make_pair(x->inDim(), x->outDim()),
                                    x);
                }
            }
            const std::vector<Shape>& shapes =
                isPlanner ? it->second.first : it->second.second;
            const std::vector<double>& rates = ctx.activeBitRates();
            const bool injects =
                std::any_of(rates.begin(), rates.end(),
                            [](double r) { return r > 0.0; });
            for (const Shape& s : shapes) {
                const auto li = lin.find({s.k, s.n});
                if (li != lin.end()) {
                    const Tensor x = randomTensor(s.m, s.k, rng);
                    flSum += perCall([&] { li->second->infer(x, ctx); }, 10,
                                     5e-4) *
                             static_cast<double>(s.calls);
                    flCalls += static_cast<double>(s.calls);
                }
                if (injects) {
                    std::vector<std::int32_t> acc(
                        static_cast<std::size_t>(s.m * s.n), 0);
                    injSum += perCall([&] {
                        BitFlipInjector::inject(acc.data(), acc.size(),
                                                rates, ctx.rng);
                    }, 20, 5e-4) *
                              static_cast<double>(s.calls);
                    injCalls += static_cast<double>(s.calls);
                }
            }
        }
    }
    out.num("planner_infer_us", mineLedgers ? plannerUs / mineLedgers : 0.0)
        .num("controller_infer_us",
             mineLedgers ? controllerUs / mineLedgers : 0.0)
        .num("predictor_infer_us", predictorUs)
        .num("faulty_linear_us", flCalls > 0 ? flSum / flCalls * 1e6 : 0.0)
        .num("inject_us_per_gemm", injCalls > 0 ? injSum / injCalls * 1e6 : 0.0);

    // intGemm and quantize over all recorded shapes of both models.
    double macs = 0.0, gemmS = 0.0, qElems = 0.0, qS = 0.0;
    for (const std::vector<Shape>* shapes :
         {&plannerShapes, &controllerShapes})
        for (const Shape& s : *shapes) {
            const auto c = static_cast<double>(s.calls);
            std::vector<std::int8_t> xq(static_cast<std::size_t>(s.m * s.k)),
                wq(static_cast<std::size_t>(s.k * s.n));
            for (auto& v : xq)
                v = static_cast<std::int8_t>(rng.next() % 255 - 127);
            for (auto& v : wq)
                v = static_cast<std::int8_t>(rng.next() % 255 - 127);
            std::vector<std::int32_t> acc(static_cast<std::size_t>(s.m * s.n));
            gemmS += perCall([&] {
                std::fill(acc.begin(), acc.end(), 0);
                intGemm(xq.data(), s.m, s.k, wq.data(), s.n, acc.data());
            }, 20, 5e-4) * c;
            macs += static_cast<double>(s.m * s.k * s.n) * c;
            const Tensor x = randomTensor(s.m, s.k, rng);
            const QuantParams qp = QuantParams::fromAbsMax(1.0f);
            std::vector<std::int8_t> q;
            qS += perCall([&] { quantizeInto(x, qp, q); }, 20, 5e-4) * c;
            qElems += static_cast<double>(s.m * s.k) * c;
        }
    out.num("intgemm_gmacs", gemmS > 0 ? macs / gemmS * 1e-9 : 0.0)
        .num("quantize_ns_per_elem", qElems > 0 ? qS / qElems * 1e9 : 0.0);

    // Attention and LayerNorm on the models' token counts (the m of the
    // square dim x dim projections), weighted by how often each model ran.
    const auto tokens = [](const std::vector<Shape>& shapes, std::int64_t dim,
                           double& calls) -> std::int64_t {
        std::int64_t best = 0;
        calls = 0.0;
        std::uint64_t bestCalls = 0;
        for (const Shape& s : shapes)
            if (s.k == dim && s.n == dim) {
                calls += static_cast<double>(s.calls);
                if (s.calls > bestCalls) {
                    bestCalls = s.calls;
                    best = s.m;
                }
            }
        return best;
    };
    double pAttnCalls = 0.0, cAttnCalls = 0.0;
    const int pDim = mine->planner(false).config().dim;
    const int cDim = mine->controller().config().dim;
    const std::int64_t tp = tokens(plannerShapes, pDim, pAttnCalls);
    const std::int64_t tc = tokens(controllerShapes, cDim, cAttnCalls);
    ComputeContext clean;
    clean.setCleanMode();
    double attnSum = 0.0, attnW = 0.0;
    if (tp > 0) {
        const Tensor x = randomTensor(tp, pDim, rng);
        attnSum += perCall([&] {
            mine->planner(false).block(0).attn().infer(x, clean);
        }, 20) * pAttnCalls;
        attnW += pAttnCalls;
    }
    double lnUs = 0.0;
    if (tc > 0) {
        const Tensor x = randomTensor(tc, cDim, rng);
        attnSum += perCall([&] {
            mine->controller().block(0).attn().infer(x, clean);
        }, 20) * cAttnCalls;
        attnW += cAttnCalls;
        nn::LayerNorm ln("perfbench.layernorm", cDim);
        lnUs = perCall([&] { ln.infer(x); }, 100) * 1e6;
    }
    const double k1 = monoNow();
    tr.add("kernels", "kernels", k0, k1);
    out.num("attention_us", attnW > 0 ? attnSum / attnW * 1e6 : 0.0)
        .num("layernorm_us", lnUs);

    if (tr.enabled() && !tr.write(tracePath, "replay " + w.name))
        throw std::runtime_error("cannot write " + tracePath);
    out.print();
    return 0;
}

} // namespace perfbench
