/**
 * @file
 * CTest fixture setup: train-or-load every model the test suites and the
 * threaded evaluations touch, so the deterministic on-disk cache is fully
 * populated before `ctest -j` fans the suites out across processes (two
 * processes training the same model would race on the cache file).
 *
 * The platform list is not hard-coded: every platform in the
 * PlatformRegistry is constructed and asked to prepare() the full CREATE
 * configuration, which builds the rotated planner and the entropy
 * predictor each stack lazily caches. Registering a new platform
 * automatically warms it here.
 */

#include <cstdio>

#include "core/platform_registry.hpp"
#include "models/model_zoo.hpp"

int
main()
{
    using namespace create;
    CreateConfig warmCfg;
    warmCfg.weightRotation = true; // build + calibrate the rotated planner
    warmCfg.voltageScaling = true; // train/load the entropy predictor

    for (const auto& info : PlatformRegistry::instance().all()) {
        std::printf("[warm] %s stack...\n", info.name.c_str());
        auto sys = info.factory(/*verbose=*/true);
        sys->prepare(warmCfg);
    }

    std::printf("[warm] model cache ready at %s\n",
                ModelZoo::assetsDir().c_str());
    return 0;
}
