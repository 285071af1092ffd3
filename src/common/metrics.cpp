#include "common/metrics.hpp"

#include <algorithm>
#include <cstdlib>

namespace create {
namespace {

/// Collection switch; resolved once from the environment, then only
/// changed explicitly via setEnabled().
std::atomic<bool>& enabledFlag()
{
    static std::atomic<bool> flag{[] {
        const char* env = std::getenv("CREATE_METRICS");
        return !(env && env[0] == '0' && env[1] == '\0');
    }()};
    return flag;
}

} // namespace

EpisodeMetrics& EpisodeMetrics::operator+=(const EpisodeMetrics& o)
{
    if (!o.present)
        return *this;
    present = true;
    wallMs += o.wallMs;
    for (const auto& f : kEpisodeMetricFields)
        this->*(f.second) += o.*(f.second);
    for (const auto& [tag, c] : o.layers) {
        auto it = std::lower_bound(
            layers.begin(), layers.end(), tag,
            [](const auto& entry, const std::string& t) {
                return entry.first < t;
            });
        if (it != layers.end() && it->first == tag)
            it->second += c;
        else
            layers.insert(it, {tag, c});
    }
    return *this;
}

const LayerFaultCounters* EpisodeMetrics::layer(const std::string& tag) const
{
    for (const auto& [t, c] : layers)
        if (t == tag)
            return &c;
    return nullptr;
}

MetricsRegistry& MetricsRegistry::tls()
{
    thread_local MetricsRegistry reg;
    return reg;
}

bool MetricsRegistry::enabled()
{
    return enabledFlag().load(std::memory_order_relaxed);
}

void MetricsRegistry::setEnabled(bool on)
{
    enabledFlag().store(on, std::memory_order_relaxed);
}

void MetricsRegistry::beginEpisode()
{
    layers_.clear();
    gemms_ = 0;
    injected_ = 0;
    detected_ = 0;
    corrected_ = 0;
    escaped_ = 0;
    reExecutions_ = 0;
}

EpisodeMetrics MetricsRegistry::endEpisode(double wallMs)
{
    EpisodeMetrics m;
    if (!enabled())
        return m;
    m.present = true;
    m.wallMs = wallMs;
    m.gemms = gemms_;
    m.flipsInjected = injected_;
    m.flipsDetected = detected_;
    m.flipsCorrected = corrected_;
    m.flipsEscaped = escaped_;
    m.reExecutions = reExecutions_;
    m.layers.reserve(layers_.size());
    for (const auto& [tag, c] : layers_)
        if (c.any())
            m.layers.emplace_back(tag, c); // std::map iteration is sorted
    beginEpisode();
    return m;
}

void MetricsRegistry::recordGemm(const std::string& tag)
{
    if (!enabled())
        return;
    ++gemms_;
    ++layers_[tag].gemms;
}

void MetricsRegistry::recordFault(const std::string& tag,
                                  const LayerFaultCounters& c)
{
    if (!enabled())
        return;
    injected_ += c.injected;
    detected_ += c.detected;
    corrected_ += c.corrected;
    escaped_ += c.escaped;
    reExecutions_ += c.reExecutions;
    LayerFaultCounters& dst = layers_[tag];
    dst.injected += c.injected;
    dst.detected += c.detected;
    dst.corrected += c.corrected;
    dst.escaped += c.escaped;
    dst.reExecutions += c.reExecutions;
}

} // namespace create
