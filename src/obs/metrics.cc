#include "src/obs/metrics.h"

#include "src/obs/json.h"

namespace fleetio::obs {

Counter &
MetricsRegistry::counter(const std::string &name)
{
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    auto &slot = hists_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

void
MetricsRegistry::markBaseline(SimTime now)
{
    windows_.clear();
    window_start_ = now;
    for (auto &[name, c] : counters_) {
        (void)name;
        c->marked_ = c->total_;
        c->baseline_ = c->total_;
    }
    for (auto &[name, h] : hists_) {
        (void)name;
        h->reset();
    }
}

void
MetricsRegistry::snapshotWindow(SimTime now)
{
    WindowSnapshot snap;
    snap.index = windows_.size();
    snap.start = window_start_;
    snap.end = now;
    snap.samples.reserve(counters_.size() + gauges_.size() +
                         hists_.size());
    for (auto &[name, c] : counters_) {
        MetricSample s;
        s.metric = name;
        s.kind = 'c';
        s.value = double(c->total_ - c->marked_);
        c->marked_ = c->total_;
        snap.samples.push_back(std::move(s));
    }
    for (auto &[name, g] : gauges_) {
        MetricSample s;
        s.metric = name;
        s.kind = 'g';
        s.value = g->value();
        snap.samples.push_back(std::move(s));
    }
    for (auto &[name, h] : hists_) {
        MetricSample s;
        s.metric = name;
        s.kind = 'h';
        s.count = h->count();
        s.mean = h->mean();
        s.p50 = h->quantile(0.50);
        s.p95 = h->quantile(0.95);
        s.p99 = h->quantile(0.99);
        s.max = h->max();
        h->reset();
        snap.samples.push_back(std::move(s));
    }
    window_start_ = now;
    windows_.push_back(std::move(snap));
}

std::uint64_t
MetricsRegistry::counterSinceBaseline(const std::string &name) const
{
    const auto it = counters_.find(name);
    return it != counters_.end() ? it->second->sinceBaseline() : 0;
}

void
MetricsRegistry::writeCsv(std::ostream &os) const
{
    os << "window,t_start_ms,t_end_ms,metric,kind,value,count,mean,"
          "p50,p95,p99,max\n";
    for (const WindowSnapshot &w : windows_) {
        for (const MetricSample &s : w.samples) {
            os << w.index << ',' << jsonNumber(toMillis(w.start))
               << ',' << jsonNumber(toMillis(w.end)) << ','
               << csvField(s.metric) << ',' << s.kind << ','
               << jsonNumber(s.value) << ',' << s.count << ','
               << jsonNumber(s.mean) << ',' << s.p50 << ',' << s.p95
               << ',' << s.p99 << ',' << s.max << '\n';
        }
    }
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    os << "{\n  \"schema\": \"fleetio-metrics-v1\",\n  \"windows\": [";
    for (std::size_t i = 0; i < windows_.size(); ++i) {
        const WindowSnapshot &w = windows_[i];
        os << (i ? "," : "") << "\n    {\"index\": " << w.index
           << ", \"t_start_ms\": " << jsonNumber(toMillis(w.start))
           << ", \"t_end_ms\": " << jsonNumber(toMillis(w.end))
           << ", \"samples\": [";
        for (std::size_t j = 0; j < w.samples.size(); ++j) {
            const MetricSample &s = w.samples[j];
            os << (j ? "," : "") << "\n      {\"metric\": \""
               << jsonEscape(s.metric) << "\", \"kind\": \"" << s.kind
               << "\", \"value\": " << jsonNumber(s.value);
            if (s.kind == 'h') {
                os << ", \"count\": " << s.count
                   << ", \"mean\": " << jsonNumber(s.mean)
                   << ", \"p50\": " << s.p50 << ", \"p95\": " << s.p95
                   << ", \"p99\": " << s.p99 << ", \"max\": " << s.max;
            }
            os << "}";
        }
        os << (w.samples.empty() ? "" : "\n    ") << "]}";
    }
    os << (windows_.empty() ? "" : "\n  ") << "]\n}\n";
}

}  // namespace fleetio::obs
