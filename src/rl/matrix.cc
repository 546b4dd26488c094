#include "src/rl/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <fstream>

namespace fleetio::rl {

std::size_t
ParameterStore::allocate(std::size_t n)
{
    const std::size_t offset = values_.size();
    values_.resize(offset + n, 0.0);
    grads_.resize(offset + n, 0.0);
    return offset;
}

void
ParameterStore::zeroGrads()
{
    std::fill(grads_.begin(), grads_.end(), 0.0);
}

bool
ParameterStore::saveToFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out.precision(17);
    out << values_.size() << '\n';
    for (double v : values_)
        out << v << '\n';
    return bool(out);
}

bool
ParameterStore::loadFromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::size_t n = 0;
    in >> n;
    if (!in || n != values_.size())
        return false;
    // Parse into a staging buffer and validate everything before
    // committing, so a truncated, garbage-padded, or NaN-bearing file
    // can never partially overwrite the live network.
    Vector staged(n);
    for (std::size_t i = 0; i < n; ++i) {
        in >> staged[i];
        if (!in || !std::isfinite(staged[i]))
            return false;
    }
    std::string trailing;
    if (in >> trailing)
        return false;  // more tokens than the header promised
    values_ = std::move(staged);
    return true;
}

void
axpy(double a, const Vector &x, Vector &y)
{
    assert(x.size() == y.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        y[i] += a * x[i];
}

double
dot(const Vector &a, const Vector &b)
{
    assert(a.size() == b.size());
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        s += a[i] * b[i];
    return s;
}

}  // namespace fleetio::rl
