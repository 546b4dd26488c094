/**
 * @file
 * Adam optimizer (Kingma & Ba) over a flat ParameterStore.
 */
#pragma once

#include <cstdint>

#include "src/rl/matrix.h"

namespace fleetio::rl {

/** Standard Adam with bias correction and optional gradient clipping. */
class Adam
{
  public:
    struct Config
    {
        double lr = 1e-4;       ///< paper Table 3 learning rate
        double max_grad_norm = 0.5;  ///< global clip; <= 0 disables
    };

    explicit Adam(ParameterStore &store);
    Adam(ParameterStore &store, const Config &cfg);

    /** Apply one update from the store's accumulated gradients. */
    void step();

    /** Steps taken so far. */
    std::uint64_t t() const { return t_; }

    const Config &config() const { return cfg_; }

    /** Moment vectors (checkpointing). */
    const Vector &firstMoments() const { return m_; }
    const Vector &secondMoments() const { return v_; }

    /**
     * Restore optimizer state from a checkpoint. @p m and @p v must be
     * the same length; @return false (and leave the live state alone)
     * on a length mismatch.
     */
    bool restoreState(const Vector &m, const Vector &v,
                      std::uint64_t t);

  private:
    ParameterStore *store_;
    Config cfg_;
    Vector m_;
    Vector v_;
    std::uint64_t t_ = 0;
};

}  // namespace fleetio::rl
