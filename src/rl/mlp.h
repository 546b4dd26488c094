/**
 * @file
 * Feed-forward building blocks: a Linear layer with manual backprop and
 * an Mlp trunk of tanh-activated Linear layers (paper Table 3: hidden
 * layer sizes [50, 50]). Both write into caller or member buffers, so a
 * forward/backward pass allocates nothing.
 */
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/rl/matrix.h"
#include "src/sim/rng.h"

namespace fleetio::rl {

/**
 * Fully-connected layer y = W x + b, parameters living in a shared
 * ParameterStore. Gradients accumulate into the store's grad buffer.
 */
class Linear
{
  public:
    /**
     * Allocates (in + 1) * out parameters in @p store and initializes W
     * with orthogonal-ish scaled-normal values (std = gain/sqrt(in)).
     */
    Linear(ParameterStore &store, std::size_t in, std::size_t out,
           Rng &rng, double gain = 1.0);

    std::size_t inSize() const { return in_; }
    std::size_t outSize() const { return out_; }

    /**
     * y = W x + b. Each y[o] is b[o] plus the products added in order
     * of the input index, whatever the batching of outputs.
     */
    void forward(std::span<const double> x, std::span<double> y) const;

    /**
     * Backprop: given dL/dy and the forward input x, accumulate dW and
     * db into the store. Writes dL/dx into @p dx unless it is empty.
     */
    void backward(std::span<const double> dy, std::span<const double> x,
                  std::span<double> dx);

  private:
    ParameterStore *store_;
    std::size_t in_, out_;
    std::size_t w_off_, b_off_;
};

/**
 * A stack of Linear layers with tanh activations after every layer
 * (including the last — callers wanting raw logits add their own head).
 * Caches activations from the latest forward() for backward().
 */
class Mlp
{
  public:
    Mlp(ParameterStore &store, std::size_t in,
        const std::vector<std::size_t> &hidden, Rng &rng);

    std::size_t inSize() const { return in_; }
    std::size_t outSize() const { return out_; }

    /**
     * Forward pass; caches the input and the activations. The returned
     * output stays valid until the next forward().
     */
    const Vector &forward(std::span<const double> x);

    /** The output of the latest forward(). */
    const Vector &output() const { return acts_.back(); }

    /**
     * Backward through the cached activations; accumulates parameter
     * grads. Must follow a forward(). dL/dinput is not computed: no
     * caller reads it.
     */
    void backward(std::span<const double> dout);

  private:
    std::size_t in_, out_;
    std::vector<Linear> layers_;
    // Workspaces, sized at construction: input_ is the latest forward
    // input, acts_[i] the tanh output of layer i; dz_ and grad_ hold
    // dL/dz and dL/dy of the layer backward() is at.
    Vector input_;
    std::vector<Vector> acts_;
    Vector dz_, grad_;
};

}  // namespace fleetio::rl
