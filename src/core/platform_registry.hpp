#pragma once

/**
 * @file
 * PlatformRegistry: the catalogue of embodied platforms the repository can
 * deploy, mapping platform name -> EmbodiedSystem factory + metadata
 * (environment family, paper-scale GOps, default operating voltages, and
 * the benchmark tasks the Fig. 17 generality study exercises).
 *
 * Before the registry existed every cross-platform consumer hard-coded its
 * platform list: bench_fig17_cross_platform constructed Mine/Manip systems
 * by hand, warm_models repeated the same list for cache warmup, and the
 * examples picked from string literals. Adding a platform meant touching
 * all of them. Now `bench_fig17_cross_platform --platforms a,b,c`,
 * `--list-platforms`, the cross-platform example, and the warm_models
 * CTest fixture all enumerate this registry. A new pairing in an existing
 * decoded-plan family is a spec row (models/platforms.hpp) plus one
 * `registerPlatform` call; a new decoded-plan family is one family type
 * (as NavFamily demonstrates).
 */

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/embodied_system.hpp"

namespace create {

/** Catalogue entry: how to build one platform and what it is. */
struct PlatformInfo
{
    std::string name;      //!< registry key, e.g. "navllama+pathrt"
    std::string envFamily; //!< "minecraft" | "manipulation" | "navigation"
    std::string plannerName;
    std::string controllerName;
    double plannerGops = 0.0;    //!< paper-scale GOps per planner call
    double controllerGops = 0.0; //!< paper-scale GOps per controller step

    /** Aggressive-but-recoverable planner voltage for AD+WR studies. */
    double defaultPlannerV = 0.72;
    /** Nominal controller voltage (VS scales below it at runtime). */
    double defaultControllerV = 0.90;

    /** Fig. 17(a) planner-side benchmark tasks (ids into the system). */
    std::vector<int> plannerTasks;
    /** Fig. 17(b) controller-side benchmark tasks. */
    std::vector<int> controllerTasks;

    /** Build the platform (models load-or-train from the shared cache). */
    std::function<std::unique_ptr<EmbodiedSystem>(bool verbose)> factory;
};

/** Process-wide platform catalogue (builtins registered on first use). */
class PlatformRegistry
{
  public:
    static PlatformRegistry& instance();

    /** Register a platform; throws std::invalid_argument on a duplicate. */
    void registerPlatform(PlatformInfo info);

    /** All platforms in registration order. */
    const std::deque<PlatformInfo>& all() const { return platforms_; }

    /** Registry keys in registration order. */
    std::vector<std::string> names() const;

    /** Lookup by name; nullptr when absent. */
    const PlatformInfo* find(const std::string& name) const;

    /**
     * Parse a comma-separated platform filter ("a,b,c"; empty selects
     * everything). Throws std::invalid_argument naming the offender when a
     * platform is unknown.
     */
    std::vector<const PlatformInfo*> select(const std::string& csv) const;

    /** Construct a platform by name; throws when unknown. */
    std::unique_ptr<EmbodiedSystem> make(const std::string& name,
                                         bool verbose = false) const;

  private:
    PlatformRegistry();

    // Deque: registerPlatform() must not invalidate the PlatformInfo
    // references/pointers all(), find(), and select() hand out.
    std::deque<PlatformInfo> platforms_;
};

} // namespace create
