/**
 * @file
 * Feed-forward building blocks: a Linear layer with manual backprop and
 * an Mlp trunk of tanh-activated Linear layers (paper Table 3: hidden
 * layer sizes [50, 50]).
 *
 * Both work on blocks of rows, one row per sample, stored row after
 * row. A training minibatch is one block; single-state inference is a
 * block of one row. The kernels run rows (or the independent outputs
 * of a row) side by side but never split one sum: each output adds its
 * inputs in input order, each weight and bias gradient adds its rows in
 * row order and each input gradient adds its outputs in output order.
 * So a block gives bit for bit what its rows would give one at a time
 * (DESIGN.md §7). Every buffer is the caller's or a member sized ahead,
 * so a pass allocates nothing.
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
     * y = W x + b for each row of a block: @p x holds rows * inSize()
     * values, @p y rows * outSize(). Each y[r][o] is b[o] plus the
     * products added in order of the input index.
     */
    void forward(std::span<const double> x, std::span<double> y) const;

    /**
     * Backprop of a block: given dL/dy and the forward input x, add
     * each row's dW and db into the store, row after row. Writes dL/dx
     * (rows * inSize()) into @p dx unless it is empty.
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
 * The caller owns the activations of a forward pass and hands them back
 * to backward().
 */
class Mlp
{
  public:
    Mlp(ParameterStore &store, std::size_t in,
        const std::vector<std::size_t> &hidden, Rng &rng);

    std::size_t inSize() const { return in_; }
    std::size_t outSize() const { return out_; }

    /** Activations one row keeps: the widths of all layers, summed. */
    std::size_t actsPerRow() const { return acts_per_row_; }

    /**
     * Forward a block: @p x holds rows * inSize() values. Writes every
     * layer's tanh output into @p acts (at least rows * actsPerRow()),
     * layer after layer, and returns the last layer's rows * outSize()
     * values, a view into @p acts. Writes no member, so concurrent
     * forwards on one Mlp are safe.
     */
    std::span<const double> forward(std::span<const double> x,
                                    std::span<double> acts) const;

    /**
     * Backward of the block forward() computed from @p x into @p acts:
     * given dL/dout (rows * outSize()), add each row's parameter
     * gradients, row after row. dL/dinput is not computed: no caller
     * reads it.
     */
    void backward(std::span<const double> x, std::span<const double> acts,
                  std::span<const double> dout);

  private:
    std::size_t in_, out_, widest_ = 0, acts_per_row_ = 0;
    std::vector<Linear> layers_;
    // Backward workspaces, grown to the largest block's rows * widest_:
    // dL/dz of the layer backward() is at, and dL/dy of the layer below.
    Vector dz_, grad_;
};

}  // namespace fleetio::rl
