/**
 * @file
 * Google-benchmark microbenchmarks for the hot substrate paths: integer
 * GEMM, FP32 matmul and the attention core (dispatched SIMD tier; force
 * one with CREATE_FORCE_ISA), fault injection, the full faulty pipeline,
 * the systolic model, Hadamard rotation, building a platform, single
 * model inferences, and the episode evaluation engine (serial vs
 * parallel fan-out).
 *
 * `--json <path>` writes the per-benchmark latency records (including the
 * per-kernel and per-inference timings) as JSON -- the machine-readable
 * perf trajectory tracked in BENCH_micro.json at the repo root and
 * uploaded by the CI perf-smoke job. It expands to google-benchmark's
 * JSON reporter flags, so it composes with --benchmark_filter and
 * --benchmark_min_time. The JSON context carries create_simd (the
 * dispatched tier) and create_build_type (this binary's NDEBUG state --
 * the perf gate refuses debug-build numbers; library_build_type only
 * describes the benchmark .so).
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <benchmark/benchmark.h>

#include "common/serialize.hpp"
#include "common/store_keys.hpp"
#include "core/coordinator.hpp"
#include "core/plan_system.hpp"
#include "core/platform_registry.hpp"
#include "core/store_backend.hpp"
#include "fault/injector.hpp"
#include "hw/faulty_gemm.hpp"
#include "hw/kernel_dispatch.hpp"
#include "hw/systolic.hpp"
#include "models/model_zoo.hpp"
#include "tensor/ops.hpp"

using namespace create;

namespace {

/**
 * The dispatched kernel on an m x k x n GEMM, called the way faultyLinear
 * calls it: the weight is packed once, outside the timed loop, as
 * QuantGemmState::freeze does.
 */
void
BM_IntGemm(benchmark::State& state, std::int64_t m, std::int64_t k,
           std::int64_t n)
{
    std::vector<std::int8_t> x(static_cast<std::size_t>(m * k), 3);
    std::vector<std::int8_t> w(static_cast<std::size_t>(k * n), -2);
    std::vector<std::int32_t> acc(static_cast<std::size_t>(m * n));
    std::vector<std::int8_t> packed;
    simd::packWeights(w.data(), k, n, packed);
    const simd::KernelTable& kernels = simd::active();
    for (auto _ : state) {
        std::fill(acc.begin(), acc.end(), 0);
        kernels.intGemm(x.data(), m, k, packed.data(), n, acc.data());
        benchmark::DoNotOptimize(acc.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * m * k * n);
}

void
BM_IntGemm(benchmark::State& state)
{
    const auto n = static_cast<std::int64_t>(state.range(0));
    BM_IntGemm(state, n, n, n);
}
BENCHMARK(BM_IntGemm)->Arg(32)->Arg(64)->Arg(128);
// The shapes that dominate an episode's GEMM time (m x k x n): the Mine
// controller's fc1 over its 3 tokens, the planner's gate/up projections
// over 14 tokens, and the VS predictor's first conv (576 im2col rows).
BENCHMARK_CAPTURE(BM_IntGemm, 3x48x144, 3, 48, 144);
BENCHMARK_CAPTURE(BM_IntGemm, 14x64x192, 14, 64, 192);
BENCHMARK_CAPTURE(BM_IntGemm, 576x27x16, 576, 27, 16);

/** m x k random normal floats (k = 1 for a vector). */
std::vector<float>
normalFloats(std::int64_t m, std::int64_t k, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> out(static_cast<std::size_t>(m * k));
    for (auto& x : out)
        x = static_cast<float>(rng.normal());
    return out;
}

/** The dispatched FP32 matmul (ops::matmulAccum's kernel), c = 0 + a @ b. */
void
BM_MatmulF32(benchmark::State& state, std::int64_t m, std::int64_t k,
             std::int64_t n)
{
    const std::vector<float> a = normalFloats(m, k, 6);
    const std::vector<float> b = normalFloats(k, n, 7);
    std::vector<float> c(static_cast<std::size_t>(m * n));
    const simd::KernelTable& kernels = simd::active();
    for (auto _ : state) {
        std::fill(c.begin(), c.end(), 0.0f);
        kernels.matmulF32(a.data(), m, k, b.data(), n, c.data());
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * m * k * n);
}
// The products calibration spends its time in (m x k x n): a Mine
// controller projection over its 3 tokens, the planner's gate/up
// projections over 14 tokens, and the VS predictor's two convs over
// their im2col rows.
BENCHMARK_CAPTURE(BM_MatmulF32, 3x48x48, 3, 48, 48);
BENCHMARK_CAPTURE(BM_MatmulF32, 14x64x192, 14, 64, 192);
BENCHMARK_CAPTURE(BM_MatmulF32, 576x27x16, 576, 27, 16);
BENCHMARK_CAPTURE(BM_MatmulF32, 144x144x32, 144, 144, 32);

/**
 * The dispatched attention core (scores, softmax, context) on fixed
 * t x dim q, k, v with a warm scratch, as MultiHeadAttention::infer
 * calls it.
 */
void
BM_AttentionCore(benchmark::State& state, std::int64_t t, std::int64_t dim,
                 std::int64_t heads)
{
    const std::vector<float> q = normalFloats(t, dim, 8);
    const std::vector<float> k = normalFloats(t, dim, 9);
    const std::vector<float> v = normalFloats(t, dim, 10);
    std::vector<float> out(static_cast<std::size_t>(t * dim));
    simd::AttentionScratch scratch;
    const simd::KernelTable& kernels = simd::active();
    for (auto _ : state) {
        kernels.attention(q.data(), k.data(), v.data(), t, dim, heads,
                          out.data(), scratch);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
}
// The Mine controller (3 tokens x 48) and planner (14 tokens x 64), both
// at 4 heads.
BENCHMARK_CAPTURE(BM_AttentionCore, 3x48, 3, 48, 4);
BENCHMARK_CAPTURE(BM_AttentionCore, 14x64, 14, 64, 4);

/**
 * Building the jarvis-1 platform from the warm weight cache: loading its
 * models and their clean calibration passes, the set-up every campaign
 * process pays before its first episode.
 */
void
BM_MineSetup(benchmark::State& state)
{
    const PlatformRegistry& registry = PlatformRegistry::instance();
    for (auto _ : state) {
        auto sys = registry.make("jarvis-1");
        benchmark::DoNotOptimize(sys.get());
    }
}
BENCHMARK(BM_MineSetup)->Unit(benchmark::kMillisecond);

void
BM_Injection(benchmark::State& state)
{
    const double ber = 1e-4;
    std::vector<std::int32_t> acc(65536, 12345);
    const std::vector<double> rates(kAccumulatorBits, ber);
    Rng rng(1);
    for (auto _ : state) {
        BitFlipInjector::inject(acc.data(), acc.size(), rates, rng);
        benchmark::DoNotOptimize(acc.data());
    }
    state.SetItemsProcessed(state.iterations() * 65536);
}
BENCHMARK(BM_Injection);

/**
 * The injection of one injected Mine controller step: one inject() per
 * GEMM, at TimingErrorModel(0.72) rates. Unlike BM_Injection, it runs
 * voltage-mode rates and, on the 1 x dim projections and the policy
 * head, binomial's per-trial n <= 64 branch.
 */
void
BM_InjectControllerStep(benchmark::State& state)
{
    const ControllerConfig cfg = ModelZoo::mineControllerConfig();
    const auto dim = static_cast<std::size_t>(cfg.dim);
    const std::size_t tokens = 3; // subtask prompt, spatial, state
    // Spatial and state projections, then per block Q, K, V, O, fc1, fc2,
    // then the policy head.
    std::vector<std::size_t> gemmOutputs = {dim, dim};
    for (int l = 0; l < cfg.layers; ++l)
        for (const std::size_t width :
             {dim, dim, dim, dim, static_cast<std::size_t>(cfg.mlpDim), dim})
            gemmOutputs.push_back(tokens * width);
    gemmOutputs.push_back(static_cast<std::size_t>(cfg.numActions));
    const std::vector<double> rates = TimingErrorModel(0.72).bitRates();
    std::vector<std::int32_t> acc(tokens * static_cast<std::size_t>(cfg.mlpDim),
                                  12345);
    Rng rng(1);
    for (auto _ : state) {
        for (const std::size_t n : gemmOutputs)
            BitFlipInjector::inject(acc.data(), n, rates, rng);
        benchmark::DoNotOptimize(acc.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(gemmOutputs.size()));
}
BENCHMARK(BM_InjectControllerStep);

void
BM_FaultyLinear(benchmark::State& state)
{
    Rng rng(2);
    Tensor x({16, 64}), w({64, 64});
    for (std::int64_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(rng.normal());
    for (std::int64_t i = 0; i < w.numel(); ++i)
        w[i] = static_cast<float>(rng.normal()) * 0.2f;
    ComputeContext ctx(2);
    QuantGemmState st;
    ctx.calibrating = true;
    faultyLinear(x, w, nullptr, st, ctx, "bm");
    ctx.calibrating = false;
    ctx.setUniformBer(1e-4);
    for (auto _ : state) {
        auto y = faultyLinear(x, w, nullptr, st, ctx, "bm");
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_FaultyLinear);

void
BM_SystolicTile(benchmark::State& state)
{
    std::vector<std::int8_t> x(128 * 128, 5);
    std::vector<std::int8_t> w(128 * 128, -3);
    SystolicArray arr;
    Rng rng(3);
    for (auto _ : state) {
        auto res = arr.run(x.data(), 128, 128, w.data(), 128, {}, 0.0, rng);
        benchmark::DoNotOptimize(res.acc.data());
    }
}
BENCHMARK(BM_SystolicTile);

void
BM_Hadamard(benchmark::State& state)
{
    for (auto _ : state) {
        auto h = ops::hadamard(64);
        benchmark::DoNotOptimize(h.data());
    }
}
BENCHMARK(BM_Hadamard);

void
BM_ControllerStep(benchmark::State& state)
{
    auto controller = ModelZoo::mineController(false);
    MineWorld w({40, 40, MineTask::Wooden, 1});
    w.setActiveSubtask({SubtaskType::MineLog, 2});
    const MineObs obs = w.observe();
    ComputeContext ctx(4);
    ctx.setUniformBer(1e-4);
    for (auto _ : state) {
        auto logits = controller->inferLogits(
            static_cast<int>(SubtaskType::MineLog), obs.spatial, obs.state,
            ctx);
        benchmark::DoNotOptimize(logits.data());
    }
}
BENCHMARK(BM_ControllerStep);

void
BM_PlannerInference(benchmark::State& state)
{
    auto planner = ModelZoo::minePlanner(false);
    ComputeContext ctx(5);
    ctx.setUniformBer(1e-5);
    for (auto _ : state) {
        auto plan = planner->inferPlan(0, 0, ctx);
        benchmark::DoNotOptimize(plan.data());
    }
}
BENCHMARK(BM_PlannerInference);

void
BM_EvaluateManip(benchmark::State& state)
{
    // The cross-episode parallel path: 32 repetitions of a manipulation
    // task fanned out over N threads (Arg), the calling thread among
    // them. On a multi-core host the 4-thread row should run >=2x faster
    // than the serial row; the aggregate TaskStats is bit-identical
    // either way.
    static ManipSystem sys("openvla", "octo", /*verbose=*/false);
    sys.setEvalThreads(static_cast<int>(state.range(0)));
    CreateConfig cfg = CreateConfig::uniform(1e-4);
    cfg.anomalyDetection = true;
    for (auto _ : state) {
        const TaskStats s =
            sys.evaluate(static_cast<int>(ManipTask::Wine), cfg, 32);
        benchmark::DoNotOptimize(&s);
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
// /1 runs inline on the calling thread, so its CPU time (what bench-gate
// reads, under this name) is its wall time. The threaded rows count real
// time: CPU time would see only the calling thread's share.
BENCHMARK(BM_EvaluateManip)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EvaluateManip)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Result-store flush cost vs store size (Arg = records already in the
 * store), json vs binlog. Each iteration publishes one 16-record batch
 * into a synthetic episode store: the json backend rewrites the whole
 * array (O(store) -- its row should scale with Arg), the binlog backend
 * appends 16 CRC-framed records to its log (O(batch) -- its row should
 * stay flat from 1k to 100k). This pair is the perf contract behind the
 * campaign-scale store format.
 */
void
storeFlushBench(benchmark::State& state, StoreFormat format)
{
    const int n = static_cast<int>(state.range(0));
    char dir[] = "/tmp/create-bench-store-XXXXXX";
    if (!mkdtemp(dir)) {
        state.SkipWithError("mkdtemp failed");
        return;
    }
    const std::string path = std::string(dir) + "/store";
    const auto episodeName = [](int i) {
        return "v2|bench|flush|cell" + std::to_string(i % 64) + "#" +
               std::to_string(i / 64);
    };
    const auto makeRecord = [&](int i, double bump) {
        JsonRecord r;
        r.name = episodeName(i);
        r.numbers.emplace_back("seed", static_cast<double>(i));
        r.numbers.emplace_back("success", (i % 3) ? 1.0 : 0.0);
        r.numbers.emplace_back("reward", 0.125 * i + bump);
        r.numbers.emplace_back("wallMs", 17.0 + 0.001 * i);
        r.numbers.emplace_back("flips", static_cast<double>(i % 7));
        return r;
    };
    std::map<std::string, JsonRecord> full;
    for (int i = 0; i < n; ++i) {
        JsonRecord r = makeRecord(i, 0.0);
        std::string name = r.name;
        full.emplace(std::move(name), std::move(r));
    }
    const std::unique_ptr<StoreBackend> be =
        openStoreBackend(path, format, "bench");
    std::string error;
    {
        // Seed flush: the store under test holds all n records on disk.
        std::vector<JsonRecord> all;
        all.reserve(full.size());
        for (const auto& [name, rec] : full)
            all.push_back(rec);
        if (!be->flush(full, all, &error)) {
            state.SkipWithError(error.c_str());
            return;
        }
    }
    int next = 0;
    std::vector<JsonRecord> batch;
    for (auto _ : state) {
        batch.clear();
        for (int k = 0; k < 16; ++k) {
            const int i = (next + k) % n;
            JsonRecord r = makeRecord(i, 1.0 + next);
            full[r.name] = r;
            batch.push_back(std::move(r));
        }
        next = (next + 16) % n;
        if (!be->flush(full, batch, &error)) {
            state.SkipWithError(error.c_str());
            return;
        }
    }
    state.SetItemsProcessed(state.iterations() * 16);
    // Best-effort cleanup of the scratch store (json file or binlog dir).
    if (format == StoreFormat::Json) {
        std::remove(path.c_str());
    } else {
        std::string cmdSafe = path + "/log-bench.crbl";
        std::remove(cmdSafe.c_str());
        std::remove(path.c_str()); // rmdir via remove(3) on the empty dir
    }
    std::remove(dir);
}

void
BM_StoreFlushJson(benchmark::State& state)
{
    storeFlushBench(state, StoreFormat::Json);
}
BENCHMARK(BM_StoreFlushJson)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void
BM_StoreFlushBinlog(benchmark::State& state)
{
    storeFlushBench(state, StoreFormat::Binlog);
}
BENCHMARK(BM_StoreFlushBinlog)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/**
 * Full coordinator range round trip over loopback: req -> range -> 16
 * episode records + done, against a live poll() coordinator owning a
 * binlog store (every done boundary flushes the pending batch, so the
 * disk append is in the loop). This is the per-range protocol overhead a
 * socket worker pays on top of the episodes themselves; the acceptance
 * bar is < 1 ms per 16-episode range.
 */
void
BM_CoordFrameRoundTrip(benchmark::State& state)
{
    char dir[] = "/tmp/create-bench-coord-XXXXXX";
    if (!mkdtemp(dir)) {
        state.SkipWithError("mkdtemp failed");
        return;
    }
    Coordinator::Options co;
    co.storePath = std::string(dir) + "/store";
    co.storeFormat = StoreFormat::Binlog;
    co.rangeEpisodes = 16;
    co.rangeTimeoutSeconds = 300.0; // no expiry churn inside the measurement
    Coordinator coord(co);
    std::string error;
    if (!coord.start(&error)) {
        state.SkipWithError(error.c_str());
        return;
    }
    std::thread serve([&] { coord.runLoop(); });
    const auto teardown = [&] {
        coord.stop();
        serve.join();
        const std::string rm = std::string("rm -rf ") + dir;
        if (std::system(rm.c_str()) != 0) {
        } // best-effort scratch cleanup
    };

    CoordClient client;
    const std::string fp = "v2|bench|coordrt|cfg0|s0";
    bool ok = client.connect("127.0.0.1", coord.port(), "bench:0.0", 3,
                             &error);
    if (ok) {
        // A need far beyond what the run consumes: fin never fires, every
        // req yields a full 16-episode range.
        JsonRecord need = coordwire::control("need");
        need.strings.emplace_back("fp", fp);
        need.numbers.emplace_back("need", 1 << 20);
        ok = client.send(need, &error);
    }
    if (!ok) {
        teardown();
        state.SkipWithError(error.c_str());
        return;
    }

    for (auto _ : state) {
        JsonRecord rec;
        std::string verb;
        if (!client.send(coordwire::control("req"), &error) ||
            !client.recv(rec, &error)) {
            teardown();
            state.SkipWithError(error.c_str());
            return;
        }
        if (!coordwire::isControl(rec, &verb) || verb != "range") {
            teardown();
            state.SkipWithError("expected a range record");
            return;
        }
        const int start = static_cast<int>(rec.number("start"));
        const int count = static_cast<int>(rec.number("count"));
        std::vector<JsonRecord> batch;
        batch.reserve(static_cast<std::size_t>(count) + 1);
        for (int i = 0; i < count; ++i) {
            JsonRecord ep;
            ep.name = sweepEpisodeKey(fp, start + i);
            ep.numbers.emplace_back("seed",
                                    static_cast<double>(start + i));
            ep.numbers.emplace_back("success", (i % 3) ? 1.0 : 0.0);
            ep.numbers.emplace_back("reward", 0.125 * (start + i));
            batch.push_back(std::move(ep));
        }
        JsonRecord done = coordwire::control("done");
        done.strings.emplace_back("fp", fp);
        done.numbers.emplace_back("start", start);
        done.numbers.emplace_back("count", count);
        batch.push_back(std::move(done));
        if (!client.send(batch, &error)) {
            teardown();
            state.SkipWithError(error.c_str());
            return;
        }
    }
    state.SetItemsProcessed(state.iterations() * 16);
    client.close();
    teardown();
}
BENCHMARK(BM_CoordFrameRoundTrip)
    ->Iterations(512)
    ->Unit(benchmark::kMicrosecond);

} // namespace

int
main(int argc, char** argv)
{
    // Translate `--json <path>` (the repo-wide bench flag) into
    // google-benchmark's JSON reporter arguments.
    std::vector<char*> args(argv, argv + argc);
    std::string outFlag;
    std::string fmtFlag;
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string arg = args[i];
        // Accept both "--json path" and "--json=path", like common/cli.hpp.
        if (arg == "--json" && i + 1 < args.size()) {
            outFlag = std::string("--benchmark_out=") + args[i + 1];
            fmtFlag = "--benchmark_out_format=json";
            args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                       args.begin() + static_cast<std::ptrdiff_t>(i + 2));
            break;
        }
        if (arg.rfind("--json=", 0) == 0) {
            outFlag = "--benchmark_out=" + arg.substr(7);
            fmtFlag = "--benchmark_out_format=json";
            args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
            break;
        }
    }
    if (!outFlag.empty()) {
        args.push_back(outFlag.data());
        args.push_back(fmtFlag.data());
    }
    int argcAdj = static_cast<int>(args.size());
    benchmark::Initialize(&argcAdj, args.data());
    if (benchmark::ReportUnrecognizedArguments(argcAdj, args.data()))
        return 1;
    // Which SIMD tier the dispatcher picked (and what else it could
    // have picked): perf numbers are meaningless without this.
    benchmark::AddCustomContext("create_simd", simd::report());
    // Our own build-type stamp. The "library_build_type" context key
    // reports how the *benchmark library* was compiled (Debian ships a
    // debug libbenchmark), not how this code was; the perf gate keys on
    // create_build_type (see tools/bench_gate.cpp).
#ifdef NDEBUG
    benchmark::AddCustomContext("create_build_type", "release");
#else
    benchmark::AddCustomContext("create_build_type", "debug");
#endif
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
