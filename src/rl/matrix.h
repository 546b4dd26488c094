/**
 * @file
 * Minimal dense linear algebra for the RL library: a flat parameter
 * store with paired gradients, plus free-function vector helpers. The
 * policy network has 4,964 parameters, so simplicity beats BLAS here.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace fleetio::rl {

using Vector = std::vector<double>;

/**
 * Flat storage for all trainable parameters of a model, with a parallel
 * gradient buffer. Layers allocate contiguous segments at construction
 * and address them by offset, which makes the optimizer and
 * (de)serialization trivial.
 */
class ParameterStore
{
  public:
    /** Reserve @p n parameters; returns the segment's base offset. */
    std::size_t allocate(std::size_t n);

    std::size_t size() const { return values_.size(); }

    double *values(std::size_t offset) { return values_.data() + offset; }
    const double *values(std::size_t offset) const
    {
        return values_.data() + offset;
    }
    double *grads(std::size_t offset) { return grads_.data() + offset; }

    Vector &rawValues() { return values_; }
    const Vector &rawValues() const { return values_; }
    Vector &rawGrads() { return grads_; }

    /** Zero the gradient buffer (before accumulating a minibatch). */
    void zeroGrads();

    /** Save / load parameter values to a simple text file. */
    bool saveToFile(const std::string &path) const;
    bool loadFromFile(const std::string &path);

  private:
    Vector values_;
    Vector grads_;
};

/** y += a * x (vectors of equal length). */
void axpy(double a, const Vector &x, Vector &y);

/** Dot product. */
double dot(const Vector &a, const Vector &b);

}  // namespace fleetio::rl
