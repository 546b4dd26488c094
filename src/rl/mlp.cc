#include "src/rl/mlp.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fleetio::rl {

namespace {

/**
 * y[k] = b[k] + sum_i rows[k * in + i] * x[i] for k < K. Floating-point
 * adds may not be reordered, so one output's dot product is a serial
 * chain of adds; K independent chains side by side keep the FPU busy.
 * Each chain still adds in order of i, so every y[k] is bit-identical
 * to the one-output-at-a-time loop.
 */
template <std::size_t K>
void
dotRows(const double *rows, std::size_t in, const double *x,
        const double *b, double *y)
{
    double s[K];
    for (std::size_t k = 0; k < K; ++k)
        s[k] = b[k];
    for (std::size_t i = 0; i < in; ++i) {
        const double xi = x[i];
        // Unrolled in full so s[] stays in registers: at -O2, GCC
        // otherwise keeps it in memory, which doubled the layer's time.
#pragma GCC unroll 8
        for (std::size_t k = 0; k < K; ++k)
            s[k] += rows[k * in + i] * xi;
    }
    for (std::size_t k = 0; k < K; ++k)
        y[k] = s[k];
}

}  // namespace

Linear::Linear(ParameterStore &store, std::size_t in, std::size_t out,
               Rng &rng, double gain)
    : store_(&store), in_(in), out_(out)
{
    w_off_ = store.allocate(in * out);
    b_off_ = store.allocate(out);
    const double std_dev = gain / std::sqrt(double(in));
    double *w = store_->values(w_off_);
    for (std::size_t i = 0; i < in * out; ++i)
        w[i] = rng.normal(0.0, std_dev);
    // Biases start at zero (already zero-initialized by the store).
}

void
Linear::forward(std::span<const double> x, std::span<double> y) const
{
    assert(x.size() == in_);
    assert(y.size() == out_);
    const double *w = store_->values(w_off_);
    const double *b = store_->values(b_off_);
    // Blocks of eight outputs, then one block each of four, two and one
    // for the rest (a 5-way head runs as 4 + 1).
    std::size_t o = 0;
    for (; o + 8 <= out_; o += 8)
        dotRows<8>(w + o * in_, in_, x.data(), b + o, y.data() + o);
    if (o + 4 <= out_) {
        dotRows<4>(w + o * in_, in_, x.data(), b + o, y.data() + o);
        o += 4;
    }
    if (o + 2 <= out_) {
        dotRows<2>(w + o * in_, in_, x.data(), b + o, y.data() + o);
        o += 2;
    }
    if (o < out_)
        dotRows<1>(w + o * in_, in_, x.data(), b + o, y.data() + o);
}

void
Linear::backward(std::span<const double> dy, std::span<const double> x,
                 std::span<double> dx)
{
    assert(dy.size() == out_);
    assert(x.size() == in_);
    assert(dx.empty() || dx.size() == in_);
    const double *w = store_->values(w_off_);
    double *dw = store_->grads(w_off_);
    double *db = store_->grads(b_off_);
    std::fill(dx.begin(), dx.end(), 0.0);
    for (std::size_t o = 0; o < out_; ++o) {
        const double g = dy[o];
        db[o] += g;
        double *drow = dw + o * in_;
        for (std::size_t i = 0; i < in_; ++i)
            drow[i] += g * x[i];
        const double *row = w + o * in_;
        for (std::size_t i = 0; i < dx.size(); ++i)
            dx[i] += g * row[i];
    }
}

Mlp::Mlp(ParameterStore &store, std::size_t in,
         const std::vector<std::size_t> &hidden, Rng &rng)
    : in_(in), input_(in)
{
    assert(!hidden.empty());
    std::size_t prev = in;
    std::size_t widest = 0;
    layers_.reserve(hidden.size());
    for (std::size_t h : hidden) {
        layers_.emplace_back(store, prev, h, rng, /*gain=*/1.0);
        acts_.emplace_back(h);
        widest = std::max(widest, h);
        prev = h;
    }
    out_ = prev;
    dz_.resize(widest);
    grad_.resize(widest);
}

const Vector &
Mlp::forward(std::span<const double> x)
{
    assert(x.size() == in_);
    std::copy(x.begin(), x.end(), input_.begin());
    std::span<const double> cur = input_;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        Vector &z = acts_[i];
        layers_[i].forward(cur, z);
        for (double &v : z)
            v = std::tanh(v);
        cur = z;
    }
    return acts_.back();
}

void
Mlp::backward(std::span<const double> dout)
{
    assert(dout.size() == out_);
    std::span<const double> grad = dout;
    for (std::size_t i = layers_.size(); i-- > 0;) {
        // d tanh(z) = 1 - tanh(z)^2, with tanh(z) cached in acts_.
        const Vector &a = acts_[i];
        const std::span<double> dz(dz_.data(), a.size());
        for (std::size_t k = 0; k < a.size(); ++k)
            dz[k] = grad[k] * (1.0 - a[k] * a[k]);
        const std::span<const double> x =
            i > 0 ? std::span<const double>(acts_[i - 1])
                  : std::span<const double>(input_);
        const std::span<double> dx =
            i > 0 ? std::span<double>(grad_.data(), x.size())
                  : std::span<double>();
        layers_[i].backward(dz, x, dx);
        grad = dx;
    }
}

}  // namespace fleetio::rl
