#include "src/rl/adam.h"

#include <cmath>

#include "src/rl/lanes.h"

namespace fleetio::rl {

namespace {
/** Adam's default decay rates and guard (Kingma & Ba; not in Table 3). */
constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;
}  // namespace

Adam::Adam(ParameterStore &store) : Adam(store, Config{}) {}

Adam::Adam(ParameterStore &store, const Config &cfg)
    : store_(&store), cfg_(cfg)
{
    m_.assign(store.size(), 0.0);
    v_.assign(store.size(), 0.0);
}

bool
Adam::restoreState(const Vector &m, const Vector &v, std::uint64_t t)
{
    if (m.size() != v.size())
        return false;
    m_ = m;
    v_ = v;
    t_ = t;
    return true;
}

void
Adam::step()
{
    Vector &g = store_->rawGrads();
    Vector &p = store_->rawValues();

    // Lazily grow state if layers were added after construction.
    if (m_.size() < p.size()) {
        m_.resize(p.size(), 0.0);
        v_.resize(p.size(), 0.0);
    }

    if (cfg_.max_grad_norm > 0) {
        double norm_sq = 0.0;
        for (double gv : g)
            norm_sq += gv * gv;
        const double norm = std::sqrt(norm_sq);
        if (norm > cfg_.max_grad_norm) {
            const double scale = cfg_.max_grad_norm / norm;
            for (double &gv : g)
                gv *= scale;
        }
    }

    ++t_;
    const double bc1 = 1.0 - std::pow(kBeta1, double(t_));
    const double bc2 = 1.0 - std::pow(kBeta2, double(t_));
    // Parameters are independent, so two run side by side in lanes.
    auto update = [&]<typename T>(std::size_t i) {
        const T gi = load<T>(&g[i]);
        const T mi = kBeta1 * load<T>(&m_[i]) + (1.0 - kBeta1) * gi;
        const T vi = kBeta2 * load<T>(&v_[i]) + (1.0 - kBeta2) * gi * gi;
        const T m_hat = mi / bc1;
        const T v_hat = vi / bc2;
        store<T>(&m_[i], mi);
        store<T>(&v_[i], vi);
        store<T>(&p[i], load<T>(&p[i]) - cfg_.lr * m_hat /
                                            (sqrtLanes(v_hat) + kEps));
    };
    std::size_t i = 0;
    for (; i + 2 <= p.size(); i += 2)
        update.template operator()<V2>(i);
    if (i < p.size())
        update.template operator()<double>(i);
}

}  // namespace fleetio::rl
