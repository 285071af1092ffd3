#include "models/model_zoo.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <sys/stat.h>

#include "env/mine_expert.hpp"
#include "nn/optim.hpp"
#include "tensor/ops.hpp"

namespace create {

// --- PlanVocab -------------------------------------------------------------

const PlanVocab&
PlanVocab::mine()
{
    static const PlanVocab vocab = [] {
        PlanVocab v;
        for (int t = 0; t < kNumMineTasks; ++t) {
            for (const auto& st : goldPlan(static_cast<MineTask>(t))) {
                if (v.tokenOf(st) < 0)
                    v.entries_.push_back(st);
            }
        }
        return v;
    }();
    return vocab;
}

int
PlanVocab::tokenOf(const Subtask& s) const
{
    for (std::size_t i = 0; i < entries_.size(); ++i)
        if (entries_[i].type == s.type && entries_[i].count == s.count)
            return static_cast<int>(i);
    return -1;
}

std::vector<Subtask>
PlanVocab::decode(const std::vector<int>& tokens) const
{
    std::vector<Subtask> plan;
    for (int t : tokens)
        if (t >= 0 && t < static_cast<int>(entries_.size()))
            plan.push_back(entries_[static_cast<std::size_t>(t)]);
    return plan;
}

std::vector<int>
PlanVocab::encode(const std::vector<Subtask>& plan) const
{
    std::vector<int> tokens;
    for (const auto& st : plan) {
        const int t = tokenOf(st);
        if (t < 0)
            throw std::logic_error("PlanVocab: subtask missing: " + st.str());
        tokens.push_back(t);
    }
    return tokens;
}

int
sampleAction(const std::vector<float>& logits, Rng& rng)
{
    const auto probs = ops::softmax(logits);
    double u = rng.uniform();
    for (std::size_t i = 0; i < probs.size(); ++i) {
        u -= probs[i];
        if (u <= 0.0)
            return static_cast<int>(i);
    }
    return static_cast<int>(probs.size()) - 1;
}

// --- ModelZoo --------------------------------------------------------------

std::string
ModelZoo::assetsDir()
{
    if (const char* env = std::getenv("CREATE_ASSETS_DIR"))
        return env;
    std::string home = "/tmp";
    if (const char* h = std::getenv("HOME"))
        home = h;
    const std::string dir = home + "/.cache/create_repro";
    ::mkdir((home + "/.cache").c_str(), 0755);
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

PlannerConfig
ModelZoo::minePlannerConfig()
{
    PlannerConfig cfg;
    cfg.name = "planner";
    cfg.numTasks = kNumMineTasks;
    cfg.maxDone = 12;
    cfg.maxPlanLen = 12;
    cfg.planVocab = PlanVocab::mine().size();
    return cfg;
}

ControllerConfig
ModelZoo::mineControllerConfig()
{
    ControllerConfig cfg;
    cfg.name = "controller";
    cfg.numSubtasks = kNumSubtaskTypes;
    cfg.spatialDim = MineObs::spatialDim();
    cfg.stateDim = MineObs::stateDim();
    cfg.numActions = kNumActions;
    return cfg;
}

PredictorConfig
ModelZoo::minePredictorConfig()
{
    PredictorConfig cfg;
    cfg.promptDim = kNumSubtaskTypes + 18;
    return cfg;
}

// --- generic trainers --------------------------------------------------------

void
ModelZoo::trainPlannerOnCorpus(PlannerModel& m,
                               const std::vector<std::pair<int, int>>& inputs,
                               const std::vector<std::vector<int>>& targets,
                               int epochs, double lr, bool verbose)
{
    nn::AdamW opt(m.parameters(), lr, 0.9, 0.999, 1e-8, /*weightDecay=*/0.0);
    Rng shuffleRng(0xBEEF);
    std::vector<std::size_t> order(inputs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    const int batch = 8;
    for (int epoch = 0; epoch < epochs; ++epoch) {
        // Fisher-Yates shuffle.
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[shuffleRng.below(i)]);
        double lossSum = 0.0;
        int steps = 0;
        for (std::size_t s0 = 0; s0 < order.size();
             s0 += static_cast<std::size_t>(batch)) {
            opt.zeroGrad();
            const std::size_t s1 =
                std::min(order.size(), s0 + static_cast<std::size_t>(batch));
            for (std::size_t s = s0; s < s1; ++s) {
                const auto& [task, done] = inputs[order[s]];
                nn::Var logits = m.forward(task, done);
                nn::Var loss = nn::crossEntropy(logits, targets[order[s]]);
                loss.backward();
                lossSum += loss.value()[0];
            }
            opt.step();
            ++steps;
        }
        if (verbose && (epoch % 20 == 0 || epoch == epochs - 1)) {
            std::fprintf(stderr, "[zoo] planner epoch %d loss %.4f\n", epoch,
                         lossSum / static_cast<double>(inputs.size()));
        }
        // Early stop on exact-match memorization.
        if (epoch % 10 == 9) {
            bool allGood = true;
            for (std::size_t s = 0; s < inputs.size() && allGood; ++s) {
                nn::Var logits = m.forward(inputs[s].first, inputs[s].second);
                for (int i = 0; i < m.config().maxPlanLen && allGood; ++i) {
                    int best = 0;
                    float bv = logits.value().at(i, 0);
                    for (int v = 1; v < m.config().planVocab; ++v) {
                        if (logits.value().at(i, v) > bv) {
                            bv = logits.value().at(i, v);
                            best = v;
                        }
                    }
                    if (best != targets[s][static_cast<std::size_t>(i)])
                        allGood = false;
                }
            }
            if (allGood) {
                if (verbose)
                    std::fprintf(stderr,
                                 "[zoo] planner memorized at epoch %d\n",
                                 epoch);
                break;
            }
        }
    }
}

void
ModelZoo::trainControllerBc(ControllerModel& m, std::vector<BcSample> data,
                            int epochs, double lr, bool verbose)
{
    nn::AdamW opt(m.parameters(), lr, 0.9, 0.999, 1e-8,
                  /*weightDecay=*/1e-4);
    Rng shuffleRng(0xD00D);
    const int batch = 24;
    for (int epoch = 0; epoch < epochs; ++epoch) {
        for (std::size_t i = data.size(); i > 1; --i)
            std::swap(data[i - 1], data[shuffleRng.below(i)]);
        double lossSum = 0.0;
        for (std::size_t s0 = 0; s0 < data.size();
             s0 += static_cast<std::size_t>(batch)) {
            opt.zeroGrad();
            const std::size_t s1 =
                std::min(data.size(), s0 + static_cast<std::size_t>(batch));
            for (std::size_t s = s0; s < s1; ++s) {
                const BcSample& b = data[s];
                nn::Var logits = m.forward(b.subtask, b.spatial, b.state);
                nn::Var loss = nn::crossEntropy(logits, {b.action});
                loss.backward();
                lossSum += loss.value()[0];
            }
            opt.step();
        }
        if (verbose) {
            std::fprintf(stderr, "[zoo] controller epoch %d loss %.4f\n",
                         epoch, lossSum / static_cast<double>(data.size()));
        }
    }
}

double
ModelZoo::trainPredictor(EntropyPredictor& p,
                         const std::vector<EntropyFrame>& frames, int epochs,
                         double lr, bool verbose)
{
    // Paper Sec. 6.1: MSE loss, AdamW, weight decay 1e-2.
    nn::AdamW opt(p.parameters(), lr, 0.9, 0.999, 1e-8, 1e-2);
    Rng shuffleRng(0xFADE);
    std::vector<std::size_t> order(frames.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    const int batch = 32;
    const int res = p.config().imgRes;
    const int pd = p.config().promptDim;
    double lastLoss = 0.0;
    for (int epoch = 0; epoch < epochs; ++epoch) {
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[shuffleRng.below(i)]);
        double lossSum = 0.0;
        int batches = 0;
        for (std::size_t s0 = 0; s0 < order.size();
             s0 += static_cast<std::size_t>(batch)) {
            const std::size_t s1 =
                std::min(order.size(), s0 + static_cast<std::size_t>(batch));
            const auto bsz = static_cast<std::int64_t>(s1 - s0);
            Tensor images({bsz, 3, res, res});
            Tensor prompts({bsz, pd});
            Tensor target({bsz, 1});
            for (std::size_t s = s0; s < s1; ++s) {
                const auto& f = frames[order[s]];
                const auto bi = static_cast<std::int64_t>(s - s0);
                std::copy(f.image.data(), f.image.data() + f.image.numel(),
                          images.data() + bi * 3 * res * res);
                for (int j = 0; j < pd; ++j)
                    prompts.at(bi, j) = f.prompt[static_cast<std::size_t>(j)];
                target.at(bi, 0) = f.entropy;
            }
            opt.zeroGrad();
            nn::Var pred = p.forward(nn::Var(std::move(images)),
                                     nn::Var(std::move(prompts)));
            nn::Var loss = nn::mseLoss(pred, target);
            loss.backward();
            opt.step();
            lossSum += loss.value()[0];
            ++batches;
        }
        lastLoss = lossSum / std::max(1, batches);
        if (verbose) {
            std::fprintf(stderr, "[zoo] predictor epoch %d mse %.4f\n", epoch,
                         lastLoss);
        }
    }
    return lastLoss;
}

// --- dataset builders --------------------------------------------------------

std::vector<BcSample>
ModelZoo::mineBcDataset(int seedsPerTask, std::uint64_t seed)
{
    std::vector<BcSample> data;
    Rng rng(seed);
    for (int t = 0; t < kNumMineTasks; ++t) {
        const auto task = static_cast<MineTask>(t);
        for (int s = 0; s < seedsPerTask; ++s) {
            MineWorld world({40, 40, task, seed * 131 + static_cast<std::uint64_t>(t * 17 + s)});
            for (const auto& st : goldPlan(task)) {
                world.setActiveSubtask(st);
                int steps = 0;
                while (!world.subtaskComplete() && steps < 300) {
                    const MineObs obs = world.observe();
                    const Action a = MineExpert::act(world, rng);
                    const BcSample sample{static_cast<int>(st.type),
                                          obs.spatial, obs.state,
                                          static_cast<int>(a)};
                    data.push_back(sample);
                    // Craft/smelt decisions are rare but safety-critical:
                    // oversample so the cloned policy nails them.
                    if (st.isCraft() || st.isSmelt()) {
                        for (int r = 0; r < 15; ++r)
                            data.push_back(sample);
                    }
                    world.step(a);
                    ++steps;
                }
                if (!world.subtaskComplete())
                    break; // unlucky map; skip rest of this episode
            }
        }
    }
    return data;
}

std::vector<ModelZoo::EntropyFrame>
ModelZoo::minePredictorFrames(ControllerModel& controller, int seedsPerTask,
                              std::uint64_t seed)
{
    std::vector<EntropyFrame> frames;
    Rng rng(seed ^ 0xABCD);
    ComputeContext ctx(seed);
    ctx.domain = Domain::Controller; // clean INT8 deployment path
    const auto pcfg = minePredictorConfig();
    for (int t = 0; t < kNumMineTasks; ++t) {
        const auto task = static_cast<MineTask>(t);
        for (int s = 0; s < seedsPerTask; ++s) {
            MineWorld world({40, 40, task,
                             seed * 977 + static_cast<std::uint64_t>(t * 31 + s)});
            for (const auto& st : goldPlan(task)) {
                world.setActiveSubtask(st);
                int steps = 0;
                while (!world.subtaskComplete() && steps < 220) {
                    const MineObs obs = world.observe();
                    const auto logits = controller.inferLogits(
                        static_cast<int>(st.type), obs.spatial, obs.state,
                        ctx);
                    const double h = ops::entropy(ops::softmax(logits));
                    if (steps % 2 == 0) {
                        EntropyFrame f;
                        f.image = world.renderImage(pcfg.imgRes, pcfg.viewRadius);
                        f.prompt = predictorPrompt(
                            static_cast<int>(st.type), kNumSubtaskTypes,
                            obs.spatial, obs.state, pcfg.promptDim);
                        f.entropy = static_cast<float>(h);
                        frames.push_back(std::move(f));
                    }
                    world.step(static_cast<Action>(sampleAction(logits, rng)));
                    ++steps;
                }
            }
        }
    }
    return frames;
}

// --- calibration ---------------------------------------------------------------

void
ModelZoo::calibrateMinePlanner(PlannerModel& m)
{
    ComputeContext ctx(0x11);
    ctx.calibrating = true;
    for (int t = 0; t < kNumMineTasks; ++t) {
        const int planLen =
            static_cast<int>(goldPlan(static_cast<MineTask>(t)).size());
        for (int done = 0; done <= planLen; ++done)
            m.inferLogits(t, done, ctx);
    }
}

void
ModelZoo::calibrateMineController(ControllerModel& m)
{
    ComputeContext ctx(0x22);
    ctx.calibrating = true;
    Rng rng(0x22);
    for (int t = 0; t < kNumMineTasks; t += 2) {
        const auto task = static_cast<MineTask>(t);
        MineWorld world({40, 40, task, 4242 + static_cast<std::uint64_t>(t)});
        for (const auto& st : goldPlan(task)) {
            world.setActiveSubtask(st);
            int steps = 0;
            while (!world.subtaskComplete() && steps < 150) {
                const MineObs obs = world.observe();
                m.inferLogits(static_cast<int>(st.type), obs.spatial,
                              obs.state, ctx);
                world.step(MineExpert::act(world, rng));
                ++steps;
            }
        }
    }
}

void
ModelZoo::calibrateMinePredictor(EntropyPredictor& p,
                                 ControllerModel& controller)
{
    ComputeContext cctx(0x33);
    ComputeContext pctx(0x34);
    pctx.calibrating = true;
    Rng rng(0x33);
    const auto pcfg = p.config();
    MineWorld world({40, 40, MineTask::Stone, 999});
    for (const auto& st : goldPlan(MineTask::Stone)) {
        world.setActiveSubtask(st);
        int steps = 0;
        while (!world.subtaskComplete() && steps < 120) {
            const MineObs obs = world.observe();
            const auto prompt = predictorPrompt(
                static_cast<int>(st.type), kNumSubtaskTypes, obs.spatial,
                obs.state, pcfg.promptDim);
            p.infer(world.renderImage(pcfg.imgRes, pcfg.viewRadius), prompt, pctx);
            const auto logits = controller.inferLogits(
                static_cast<int>(st.type), obs.spatial, obs.state, cctx);
            world.step(static_cast<Action>(sampleAction(logits, rng)));
            ++steps;
        }
    }
}

// --- load-or-train entry points -------------------------------------------------

void
ModelZoo::loadOrTrain(nn::Module& m, const std::string& file,
                      const std::function<void()>& train)
{
    const std::string path = assetsDir() + "/" + file;
    BlobArchive ar;
    if (ar.load(path) && m.load(ar))
        return;
    train();
    BlobArchive out;
    m.save(out);
    out.save(path);
}

std::unique_ptr<PlannerModel>
ModelZoo::minePlanner(bool verbose)
{
    Rng rng(0x9111);
    auto m = std::make_unique<PlannerModel>(minePlannerConfig(), rng);
    loadOrTrain(*m, "mine_planner_v2.bin", [&] {
        if (verbose)
            std::fprintf(stderr, "[zoo] training Minecraft planner...\n");
        const auto& vocab = PlanVocab::mine();
        std::vector<std::pair<int, int>> inputs;
        std::vector<std::vector<int>> targets;
        for (int t = 0; t < kNumMineTasks; ++t) {
            const auto plan = goldPlan(static_cast<MineTask>(t));
            const auto tokens = vocab.encode(plan);
            for (int done = 0; done <= static_cast<int>(plan.size()); ++done) {
                std::vector<int> tgt(
                    tokens.begin() + done, tokens.end());
                tgt.resize(static_cast<std::size_t>(
                               m->config().maxPlanLen),
                           vocab.endToken());
                inputs.push_back({t, done});
                targets.push_back(std::move(tgt));
            }
        }
        trainPlannerOnCorpus(*m, inputs, targets, 150, 2.5e-3, verbose);
    });
    calibrateMinePlanner(*m);
    return m;
}

std::unique_ptr<ControllerModel>
ModelZoo::mineController(bool verbose)
{
    Rng rng(0x9222);
    auto m = std::make_unique<ControllerModel>(mineControllerConfig(), rng);
    loadOrTrain(*m, "mine_controller_v2.bin", [&] {
        if (verbose)
            std::fprintf(stderr, "[zoo] training Minecraft controller "
                                 "(behavior cloning)...\n");
        auto data = mineBcDataset(4, 0x5151);
        if (verbose)
            std::fprintf(stderr, "[zoo] BC dataset: %zu samples\n",
                         data.size());
        trainControllerBc(*m, std::move(data), 3, 1.5e-3, verbose);
    });
    calibrateMineController(*m);
    return m;
}

std::unique_ptr<EntropyPredictor>
ModelZoo::minePredictor(ControllerModel& controller, bool verbose)
{
    Rng rng(0x9333);
    auto p = std::make_unique<EntropyPredictor>(minePredictorConfig(), rng);
    loadOrTrain(*p, "mine_predictor_v2.bin", [&] {
        if (verbose)
            std::fprintf(stderr, "[zoo] training entropy predictor...\n");
        const auto frames = minePredictorFrames(controller, 3, 0x6161);
        if (verbose)
            std::fprintf(stderr, "[zoo] predictor dataset: %zu frames\n",
                         frames.size());
        trainPredictor(*p, frames, 30, 1.2e-3, verbose);
    });
    calibrateMinePredictor(*p, controller);
    return p;
}

MineModels
ModelZoo::mineModels(bool verbose)
{
    MineModels models;
    models.planner = minePlanner(verbose);
    models.controller = mineController(verbose);
    models.predictor = minePredictor(*models.controller, verbose);
    return models;
}

} // namespace create
