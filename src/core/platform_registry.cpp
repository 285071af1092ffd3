#include "core/platform_registry.hpp"

#include <stdexcept>

#include "core/create_system.hpp"
#include "core/plan_system.hpp"
#include "perf/workloads.hpp"

namespace create {

namespace {

template <typename Task>
std::vector<int>
taskIds(std::initializer_list<Task> ts)
{
    std::vector<int> ids;
    for (const auto t : ts)
        ids.push_back(static_cast<int>(t));
    return ids;
}

/** A pairing of decoded-plan family F, priced by its spec rows. */
template <class F>
PlatformInfo
planPlatform(const std::string& planner, const std::string& controller,
             std::vector<int> plannerTasks, std::vector<int> controllerTasks)
{
    const Workload plannerW = platforms::plannerSpec<F>(planner).workload();
    const Workload controllerW =
        platforms::controllerSpec<F>(controller).workload();
    PlatformInfo p;
    p.name = planner + "+" + controller;
    p.envFamily = F::kEnvFamily;
    p.plannerName = plannerW.name;
    p.controllerName = controllerW.name;
    p.plannerGops = plannerW.paperGops;
    p.controllerGops = controllerW.paperGops;
    p.plannerTasks = std::move(plannerTasks);
    p.controllerTasks = std::move(controllerTasks);
    p.factory = [planner, controller](bool verbose) {
        return std::make_unique<PlanSystem<F>>(planner, controller, verbose);
    };
    return p;
}

} // namespace

PlatformRegistry::PlatformRegistry()
{
    // --- Minecraft family (paper Secs. 4-6) ------------------------------
    {
        PlatformInfo p;
        p.name = "jarvis-1";
        p.envFamily = "minecraft";
        p.plannerName = workloads::jarvisPlanner().name;
        p.controllerName = workloads::jarvisController().name;
        p.plannerGops = workloads::jarvisPlanner().paperGops;
        p.controllerGops = workloads::jarvisController().paperGops;
        p.plannerTasks = taskIds({MineTask::Wooden, MineTask::Stone});
        p.controllerTasks =
            taskIds({MineTask::Charcoal, MineTask::Chicken});
        p.factory = [](bool verbose) {
            return std::make_unique<MineSystem>(verbose);
        };
        registerPlatform(std::move(p));
    }

    // --- Manipulation family (paper Fig. 17, Table 10) -------------------
    using platforms::ManipFamily;
    registerPlatform(planPlatform<ManipFamily>(
        "openvla", "octo",
        taskIds({ManipTask::Wine, ManipTask::Alphabet, ManipTask::Bbq}),
        taskIds(
            {ManipTask::Eggplant, ManipTask::Coke, ManipTask::Carrot})));
    registerPlatform(planPlatform<ManipFamily>(
        "roboflamingo", "rt1",
        taskIds({ManipTask::Button, ManipTask::Block, ManipTask::Handle}),
        taskIds({ManipTask::Open, ManipTask::Move, ManipTask::Place})));

    // --- Navigation family (third family; NavWorld missions) -------------
    using platforms::NavFamily;
    registerPlatform(planPlatform<NavFamily>(
        "navllama", "pathrt",
        taskIds({NavTask::Delivery, NavTask::Patrol, NavTask::Corridor,
                  NavTask::Rooftop}),
        taskIds({NavTask::Inspect, NavTask::Survey, NavTask::Canyon,
                  NavTask::Relay})));
    registerPlatform(planPlatform<NavFamily>(
        "navllama", "swiftpilot",
        taskIds({NavTask::Rescue, NavTask::Homebound, NavTask::Canyon,
                  NavTask::Corridor}),
        taskIds({NavTask::Delivery, NavTask::Patrol, NavTask::Relay,
                  NavTask::Rooftop})));
}

PlatformRegistry&
PlatformRegistry::instance()
{
    static PlatformRegistry registry;
    return registry;
}

void
PlatformRegistry::registerPlatform(PlatformInfo info)
{
    if (find(info.name))
        throw std::invalid_argument("platform already registered: " +
                                    info.name);
    if (!info.factory)
        throw std::invalid_argument("platform has no factory: " + info.name);
    platforms_.push_back(std::move(info));
}

std::vector<std::string>
PlatformRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(platforms_.size());
    for (const auto& p : platforms_)
        out.push_back(p.name);
    return out;
}

const PlatformInfo*
PlatformRegistry::find(const std::string& name) const
{
    for (const auto& p : platforms_)
        if (p.name == name)
            return &p;
    return nullptr;
}

std::vector<const PlatformInfo*>
PlatformRegistry::select(const std::string& csv) const
{
    std::vector<const PlatformInfo*> out;
    if (csv.empty()) {
        for (const auto& p : platforms_)
            out.push_back(&p);
        return out;
    }
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        const std::size_t comma = csv.find(',', pos);
        const std::string name =
            csv.substr(pos, comma == std::string::npos ? std::string::npos
                                                       : comma - pos);
        if (!name.empty()) {
            const PlatformInfo* p = find(name);
            if (!p)
                throw std::invalid_argument("unknown platform: " + name);
            out.push_back(p);
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

std::unique_ptr<EmbodiedSystem>
PlatformRegistry::make(const std::string& name, bool verbose) const
{
    const PlatformInfo* p = find(name);
    if (!p)
        throw std::invalid_argument("unknown platform: " + name);
    return p->factory(verbose);
}

} // namespace create
