#include "src/rl/mlp.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/rl/lanes.h"

namespace fleetio::rl {

namespace {

/**
 * Forward of O outputs of kLanes<T> * P rows: y[r][o] = b[o] +
 * sum_i w[o][i] * x[r][i]. Lane j of s[o][p] is row p * kLanes<T> + j,
 * so rows run side by side and each sum still adds in order of i.
 * @p w and @p b start at the first output, @p x and @p y at the first
 * row; x rows are @p in apart, y rows @p out.
 */
template <typename T, std::size_t O, std::size_t P>
void
forwardTile(const double *w, const double *b, std::size_t in,
            std::size_t out, const double *x, double *y)
{
    constexpr std::size_t L = kLanes<T>;
    T s[O][P];
    for (std::size_t o = 0; o < O; ++o)
        for (std::size_t p = 0; p < P; ++p)
            s[o][p] = splat<T>(b[o]);
    for (std::size_t i = 0; i < in; ++i) {
        T xi[P];
        for (std::size_t p = 0; p < P; ++p) {
            if constexpr (L == 1)
                xi[p] = x[p * in + i];
            else
                xi[p] = T{x[2 * p * in + i], x[(2 * p + 1) * in + i]};
        }
        // Unrolled in full so s[] stays in registers: at -O2, GCC
        // otherwise keeps it in memory, which doubled the layer's time.
#pragma GCC unroll 8
        for (std::size_t o = 0; o < O; ++o) {
            const double wo = w[o * in + i];
#pragma GCC unroll 8
            for (std::size_t p = 0; p < P; ++p)
                s[o][p] += wo * xi[p];
        }
    }
    for (std::size_t o = 0; o < O; ++o) {
        for (std::size_t p = 0; p < P; ++p) {
            double lanes[L];
            store<T>(lanes, s[o][p]);
            for (std::size_t j = 0; j < L; ++j)
                y[(p * L + j) * out + o] = lanes[j];
        }
    }
}

/**
 * Outputs @p o onward of kLanes<T> * P rows: blocks of @p O outputs,
 * then at most one block each of O/2, O/4, ..., 1 for the rest.
 */
template <typename T, std::size_t O, std::size_t P>
void
forwardRows(const double *w, const double *b, std::size_t in,
            std::size_t out, const double *x, double *y, std::size_t o = 0)
{
    for (; o + O <= out; o += O)
        forwardTile<T, O, P>(w + o * in, b + o, in, out, x, y + o);
    if constexpr (O > 1)
        forwardRows<T, O / 2, P>(w, b, in, out, x, y, o);
}

/**
 * The rank-one updates of both backward products, for A rows a of c
 * and the columns [0, K * kLanes<T>) from @p c:
 *   c[a][j] = (from_zero ? 0 : c[a][j]) + sum_t s[t][a] * v[t][j],
 * adding over t < @p n in order. Columns run side by side in the
 * lanes; each sum is one serial chain. s[t][a] is at t * st + a * sa,
 * v[t][j] at t * vt + j and c[a][j] at a * ca + j.
 */
template <typename T, std::size_t A, std::size_t K>
void
accumulateTile(const double *s, std::size_t st, std::size_t sa,
               const double *v, std::size_t vt, std::size_t n, double *c,
               std::size_t ca, bool from_zero)
{
    constexpr std::size_t L = kLanes<T>;
    T acc[A][K];
    for (std::size_t a = 0; a < A; ++a)
        for (std::size_t k = 0; k < K; ++k)
            acc[a][k] = from_zero ? splat<T>(0.0)
                                  : load<T>(c + a * ca + k * L);
    for (std::size_t t = 0; t < n; ++t) {
        T vrow[K];
        for (std::size_t k = 0; k < K; ++k)
            vrow[k] = load<T>(v + t * vt + k * L);
#pragma GCC unroll 8
        for (std::size_t a = 0; a < A; ++a) {
            const double g = s[t * st + a * sa];
#pragma GCC unroll 8
            for (std::size_t k = 0; k < K; ++k)
                acc[a][k] += g * vrow[k];
        }
    }
    for (std::size_t a = 0; a < A; ++a)
        for (std::size_t k = 0; k < K; ++k)
            store<T>(c + a * ca + k * L, acc[a][k]);
}

/**
 * accumulateTile() over all @p m rows of c, two at a time, and all
 * @p width columns: eight at a time, then pairs, then a lone column.
 */
void
accumulate(const double *s, std::size_t st, std::size_t sa, const double *v,
           std::size_t vt, std::size_t n, double *c, std::size_t ca,
           std::size_t m, std::size_t width, bool from_zero)
{
    auto columns = [&]<typename T, std::size_t K>(std::size_t j) {
        std::size_t a = 0;
        for (; a + 2 <= m; a += 2)
            accumulateTile<T, 2, K>(s + a * sa, st, sa, v + j, vt, n,
                                    c + a * ca + j, ca, from_zero);
        if (a < m)
            accumulateTile<T, 1, K>(s + a * sa, st, sa, v + j, vt, n,
                                    c + a * ca + j, ca, from_zero);
    };
    std::size_t j = 0;
    for (; j + 8 <= width; j += 8)
        columns.template operator()<V2, 4>(j);
    for (; j + 2 <= width; j += 2)
        columns.template operator()<V2, 1>(j);
    if (j < width)
        columns.template operator()<double, 1>(j);
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
    const std::size_t rows = y.size() / out_;
    assert(y.size() == rows * out_);
    assert(x.size() == rows * in_);
    const double *w = store_->values(w_off_);
    const double *b = store_->values(b_off_);
    // Four rows at a time, two per register, four outputs per block;
    // the one to three rows left run alone, eight outputs side by side.
    std::size_t r = 0;
    for (; r + 4 <= rows; r += 4)
        forwardRows<V2, 4, 2>(w, b, in_, out_, x.data() + r * in_,
                              y.data() + r * out_);
    for (; r < rows; ++r)
        forwardRows<double, 8, 1>(w, b, in_, out_, x.data() + r * in_,
                                  y.data() + r * out_);
}

void
Linear::backward(std::span<const double> dy, std::span<const double> x,
                 std::span<double> dx)
{
    const std::size_t rows = dy.size() / out_;
    assert(dy.size() == rows * out_);
    assert(x.size() == rows * in_);
    assert(dx.empty() || dx.size() == rows * in_);
    const double *w = store_->values(w_off_);
    double *dw = store_->grads(w_off_);
    double *db = store_->grads(b_off_);

    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t o = 0; o < out_; ++o)
            db[o] += dy[r * out_ + o];

    // dW[o][i] += sum_r dy[r][o] * x[r][i], rows in order.
    accumulate(dy.data(), out_, 1, x.data(), in_, rows, dw, in_, out_, in_,
               /*from_zero=*/false);
    // dx[r][i] = sum_o dy[r][o] * W[o][i] from zero, outputs in order.
    if (!dx.empty())
        accumulate(dy.data(), 1, out_, w, in_, out_, dx.data(), in_, rows,
                   in_, /*from_zero=*/true);
}

Mlp::Mlp(ParameterStore &store, std::size_t in,
         const std::vector<std::size_t> &hidden, Rng &rng)
    : in_(in)
{
    assert(!hidden.empty());
    std::size_t prev = in;
    layers_.reserve(hidden.size());
    for (std::size_t h : hidden) {
        layers_.emplace_back(store, prev, h, rng, /*gain=*/1.0);
        widest_ = std::max(widest_, h);
        acts_per_row_ += h;
        prev = h;
    }
    out_ = prev;
}

std::span<const double>
Mlp::forward(std::span<const double> x, std::span<double> acts) const
{
    const std::size_t rows = x.size() / in_;
    assert(x.size() == rows * in_);
    assert(acts.size() >= rows * acts_per_row_);
    std::span<const double> cur = x;
    for (const Linear &layer : layers_) {
        const std::span<double> z = acts.first(rows * layer.outSize());
        layer.forward(cur, z);
        for (double &v : z)
            v = std::tanh(v);
        cur = z;
        acts = acts.subspan(z.size());
    }
    return cur;
}

void
Mlp::backward(std::span<const double> x, std::span<const double> acts,
              std::span<const double> dout)
{
    const std::size_t rows = x.size() / in_;
    assert(dout.size() == rows * out_);
    if (dz_.size() < rows * widest_) {
        dz_.resize(rows * widest_);
        grad_.resize(rows * widest_);
    }
    // Start of each layer's activations in acts, from the top down.
    std::size_t end = rows * acts_per_row_;
    std::span<const double> grad = dout;
    for (std::size_t i = layers_.size(); i-- > 0;) {
        // d tanh(z) = 1 - tanh(z)^2, with tanh(z) kept in acts.
        const std::size_t n = rows * layers_[i].outSize();
        const std::span<const double> a = acts.subspan(end - n, n);
        end -= n;
        const std::span<double> dz(dz_.data(), n);
        for (std::size_t k = 0; k < n; ++k)
            dz[k] = grad[k] * (1.0 - a[k] * a[k]);
        const std::span<const double> in =
            i > 0 ? acts.subspan(end - rows * layers_[i].inSize(),
                                 rows * layers_[i].inSize())
                  : x;
        const std::span<double> dx =
            i > 0 ? std::span<double>(grad_.data(), in.size())
                  : std::span<double>();
        layers_[i].backward(dz, in, dx);
        grad = dx;
    }
}

}  // namespace fleetio::rl
