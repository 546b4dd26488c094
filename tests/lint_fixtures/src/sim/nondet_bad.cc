// Fixture: R1 nondeterminism — wall clock, libc RNG and containers
// whose iteration order is unspecified, in sim code.
#include <chrono>
#include <cstdlib>

namespace fixture {

long
wallNow()
{
    return std::chrono::system_clock::now().time_since_epoch().count();
}

int
libcRandom()
{
    return rand();
}

struct Registry
{
    std::unordered_map<int, long> by_id;
    std::map<const Registry *, int> by_owner;
    std::map<int, const Registry *> owner_of;  // pointer values are fine
};

}  // namespace fixture
