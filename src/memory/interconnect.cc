#include "memory/interconnect.h"

#include "obs/metrics.h"
#include "util/logging.h"

namespace betty {

InterconnectConfig
InterconnectConfig::nvlink()
{
    InterconnectConfig config;
    config.name = "nvlink";
    config.bandwidth = 150.0e9;
    config.latencySeconds = 5.0e-6;
    return config;
}

InterconnectConfig
InterconnectConfig::pcie()
{
    InterconnectConfig config;
    config.name = "pcie";
    config.bandwidth = 12.0e9;
    config.latencySeconds = 20.0e-6;
    return config;
}

bool
InterconnectConfig::parse(const std::string& name,
                          InterconnectConfig* out)
{
    if (name == "nvlink") {
        *out = nvlink();
        return true;
    }
    if (name == "pcie") {
        *out = pcie();
        return true;
    }
    return false;
}

double
InterconnectModel::allReduceSeconds(int64_t gradient_bytes,
                                    int32_t devices,
                                    double slowdown) const
{
    BETTY_ASSERT(gradient_bytes >= 0, "negative gradient bytes");
    if (devices <= 1 || gradient_bytes == 0)
        return 0.0;
    const double steps = 2.0 * double(devices - 1);
    const double shard = double(gradient_bytes) / double(devices);
    return steps * (config_.latencySeconds +
                    shard * slowdown / config_.bandwidth);
}

double
InterconnectModel::chargeAllReduce(int64_t gradient_bytes,
                                   int32_t devices, double slowdown)
{
    const double seconds =
        allReduceSeconds(gradient_bytes, devices, slowdown);
    if (seconds == 0.0)
        return 0.0;
    seconds_ += seconds;
    ++collectives_;
    const int64_t moved = int64_t(
        2.0 * double(devices - 1) * double(gradient_bytes) /
        double(devices));
    bytes_moved_ += moved;
    if (obs::Metrics::enabled()) {
        static obs::Counter& collectives =
            obs::Metrics::counter("interconnect.collectives");
        static obs::Counter& bytes =
            obs::Metrics::counter("interconnect.bytes");
        collectives.increment();
        bytes.add(moved);
    }
    return seconds;
}

} // namespace betty
