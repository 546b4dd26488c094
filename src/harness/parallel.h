/**
 * @file
 * Parallel experiment execution: a fixed-size thread pool plus ordered
 * fan-out helpers. Every cell of a paper-figure grid is an independent,
 * deterministic simulation (each owns its EventQueue/Testbed), so a
 * sweep parallelizes embarrassingly; the only cross-cell state — the
 * calibrated-SLO cache — is internally synchronized (see
 * calibratedSlo()).
 *
 * Job count: pass an explicit @p jobs, or 0 to use benchJobs(), which
 * honors FLEETIO_BENCH_JOBS and defaults to hardware_concurrency.
 */
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/harness/experiment.h"

namespace fleetio {

/**
 * Parse a FLEETIO_BENCH_JOBS-style value: a decimal integer in
 * [1, 4096] with no leading/trailing garbage. Returns @p fallback for
 * nullptr/empty/malformed/overflowing/out-of-range input ("4x", "1e3",
 * " 8 ", "99999999999999999999", "0", "-2" all fall back). Pure and
 * environment-free, so tests can exercise every rejection path.
 */
unsigned parallelJobCount(const char *value, unsigned fallback);

/**
 * Worker-thread count for parallel sweeps: FLEETIO_BENCH_JOBS when set
 * to a valid positive integer (garbage values warn once and fall
 * through), else std::thread::hardware_concurrency(), never less
 * than 1.
 */
unsigned benchJobs();

/** A fixed-size pool of worker threads draining a FIFO task queue. */
class ThreadPool
{
  public:
    explicit ThreadPool(unsigned threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task for execution by some worker. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    unsigned size() const { return unsigned(workers_.size()); }

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> tasks_;  // guarded by mu_
    std::mutex mu_;
    std::condition_variable cv_task_;
    std::condition_variable cv_done_;
    /// Queued + currently running.
    std::size_t in_flight_ = 0;  // guarded by mu_
    bool stop_ = false;          // guarded by mu_
};

/**
 * Apply @p fn to every item, running up to @p jobs applications
 * concurrently (0 = benchJobs()). Results are returned in item order
 * regardless of completion order; the first exception thrown by any
 * task is rethrown after all tasks settle. With one job (or one item)
 * this degenerates to the plain serial loop.
 */
template <typename Item, typename Fn>
auto
parallelMap(const std::vector<Item> &items, Fn fn, unsigned jobs = 0)
    -> std::vector<std::invoke_result_t<Fn &, const Item &>>
{
    using R = std::invoke_result_t<Fn &, const Item &>;
    static_assert(std::is_default_constructible_v<R>,
                  "parallelMap results are pre-sized");
    std::vector<R> results(items.size());
    if (items.empty())
        return results;
    unsigned n = jobs != 0 ? jobs : benchJobs();
    if (n > items.size())
        n = unsigned(items.size());
    if (n <= 1) {
        for (std::size_t i = 0; i < items.size(); ++i)
            results[i] = fn(items[i]);
        return results;
    }
    ThreadPool pool(n);
    std::mutex err_mu;
    std::exception_ptr err;
    for (std::size_t i = 0; i < items.size(); ++i) {
        pool.submit([&results, &items, &fn, &err_mu, &err, i]() {
            try {
                results[i] = fn(items[i]);
            } catch (...) {
                std::lock_guard<std::mutex> g(err_mu);
                if (!err)
                    err = std::current_exception();
            }
        });
    }
    pool.wait();
    if (err)
        std::rethrow_exception(err);
    return results;
}

/**
 * Run every spec through the pool and return results in spec order.
 * Bit-identical to calling runExperiment() in a serial loop: each
 * experiment owns its simulation stack, and SLO calibration dedupes
 * concurrent same-key runs behind a once-flag.
 */
std::vector<ExperimentResult>
runExperiments(const std::vector<ExperimentSpec> &specs,
               unsigned jobs = 0);

}  // namespace fleetio
